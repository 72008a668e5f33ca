package vector

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A flat block persists a table of equal-length rows as one
// little-endian byte run: the row count and the dimension as uint32
// words, then count × dim float32 bit patterns in row order. It is the
// one codec of every persisted float table — the encoder's embedding
// table and a checkpoint's dialect vectors — and round-trips every
// float32 bit for bit.

// blockHeader is the size of a flat block's count and dimension words.
const blockHeader = 8

// Rows returns count zero rows of dimension dim that share one backing
// array, each capped at its own length so an append cannot run into
// the next row.
func Rows(count, dim int) []Vec {
	return rowsOf(make([]float32, count*dim), count, dim)
}

// rowsOf slices backing into count rows of dimension dim.
func rowsOf(backing []float32, count, dim int) []Vec {
	rows := make([]Vec, count)
	for i := range rows {
		rows[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// EncodeRows encodes rows as one flat block of exactly its size. Every
// row must have the same, non-zero dimension.
func EncodeRows(rows []Vec) ([]byte, error) {
	dim := 0
	if len(rows) > 0 {
		dim = len(rows[0])
		if dim == 0 {
			return nil, fmt.Errorf("vector: %d rows of dimension 0", len(rows))
		}
	}
	if uint64(len(rows)) > math.MaxUint32 || uint64(dim) > math.MaxUint32 {
		return nil, fmt.Errorf("vector: %d rows of dimension %d exceed the block format", len(rows), dim)
	}
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("vector: row %d has dimension %d, want %d", i, len(r), dim)
		}
	}
	out := make([]byte, blockHeader, blockHeader+4*len(rows)*dim)
	binary.LittleEndian.PutUint32(out, uint32(len(rows)))
	binary.LittleEndian.PutUint32(out[4:], uint32(dim))
	for _, r := range rows {
		for _, x := range r {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
		}
	}
	return out, nil
}

// DecodeRows decodes a flat block into rows sharing one backing array
// (see Rows). It validates the count, the dimension and the length
// against each other before it allocates anything, so a hostile header
// cannot claim more memory than the block carries, and it never
// panics: every malformed block is an error.
func DecodeRows(data []byte) ([]Vec, error) {
	if len(data) < blockHeader {
		return nil, fmt.Errorf("vector: block of %d bytes is shorter than its header", len(data))
	}
	count := uint64(binary.LittleEndian.Uint32(data))
	dim := uint64(binary.LittleEndian.Uint32(data[4:]))
	body := data[blockHeader:]
	if count > 0 && dim == 0 {
		return nil, fmt.Errorf("vector: block of %d rows has dimension 0", count)
	}
	// Both words are below 2^32, so the product cannot overflow.
	if uint64(len(body))%4 != 0 || count*dim != uint64(len(body))/4 {
		return nil, fmt.Errorf("vector: block of %d × %d floats carries %d bytes", count, dim, len(body))
	}
	if count == 0 {
		return nil, nil
	}
	floats := make([]float32, count*dim)
	for i := range floats {
		floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return rowsOf(floats, int(count), int(dim)), nil
}
