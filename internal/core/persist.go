package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"repro/internal/embed"
	"repro/internal/nn"
	"repro/internal/rerank"
	"repro/internal/text"
)

// ErrCorruptModels is wrapped by every integrity failure of LoadModels
// — a torn write, a truncated stream, a bit flip — so callers can
// distinguish corruption (restore from a good copy) from an ordinary
// I/O error with errors.Is.
var ErrCorruptModels = errors.New("model stream corrupt")

// The model envelope: an 8-byte magic, a big-endian payload length,
// the gob payload, and a trailing CRC-64/ECMA of the payload. The
// trailing checksum makes torn writes detectable: a crash mid-write
// leaves a file whose checksum (or length) cannot match. Version 2
// stores the encoder's embedding table as one flat float block.
const modelsMagic = "GARMDL2\n"

// modelsMagicV1 marks a version-1 stream, whose encoder table is gob
// row by row. LoadModels still reads it, so model files written by
// older builds keep loading; Save never writes it. An older build
// refuses a version-2 stream at the magic instead of deploying the
// empty encoder it would decode.
const modelsMagicV1 = "GARMDL1\n"

var modelsCRC = crc64.MakeTable(crc64.ECMA)

// envelopeOverhead is the non-payload size: magic + length + checksum.
const envelopeOverhead = len(modelsMagic) + 8 + 8

// modelsState is the serialized form of Models. The re-ranker is split
// into its network and its extractor's IDF statistics; the extractor's
// encoder reference is re-attached to the (also serialized) retrieval
// encoder on load.
type modelsState struct {
	Encoder   *embed.Encoder
	HasRerank bool
	RerankNet *nn.MLP
	RerankIDF *text.IDF
}

// Save writes the trained models to w in the checksummed envelope
// format. Saved models can be reloaded with LoadModels and deployed on
// any prepared System, skipping training entirely.
func (m *Models) Save(w io.Writer) error {
	var payload bytes.Buffer
	st := modelsState{Encoder: m.Encoder}
	if m.Reranker != nil {
		st.HasRerank = true
		st.RerankNet = m.Reranker.Net
		st.RerankIDF = m.Reranker.X.IDF
	}
	if err := gob.NewEncoder(&payload).Encode(&st); err != nil {
		return fmt.Errorf("core: saving models: %w", err)
	}

	var out bytes.Buffer
	out.Grow(payload.Len() + envelopeOverhead)
	out.WriteString(modelsMagic)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(payload.Len()))
	out.Write(n[:])
	out.Write(payload.Bytes())
	binary.BigEndian.PutUint64(n[:], crc64.Checksum(payload.Bytes(), modelsCRC))
	out.Write(n[:])
	if _, err := w.Write(out.Bytes()); err != nil {
		return fmt.Errorf("core: saving models: %w", err)
	}
	return nil
}

// SaveFile writes the models to path crash-safely: the envelope goes
// to a temporary file in the same directory, is fsynced, and is
// renamed over path, so a crash at any point leaves either the old
// complete file or the new complete file — never a torn one. (A torn
// write that somehow survives is still caught by LoadModels via the
// trailing checksum.)
func (m *Models) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".gar-models-*.tmp")
	if err != nil {
		return fmt.Errorf("core: saving models: %w", err)
	}
	defer func() {
		if tmp != nil {
			discardTemp(tmp)
		}
	}()
	if err := m.Save(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("core: saving models: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: saving models: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: saving models: %w", err)
	}
	tmp = nil // renamed away; nothing to clean up
	// Fsync the directory so the rename itself survives a crash.
	syncDir(dir)
	return nil
}

// discardTemp closes and removes a temp file after a failure that is
// already being reported.
//
//garlint:allow errlost -- best-effort cleanup on a path that is already failing; the original error is the one to surface
func discardTemp(f *os.File) {
	_ = f.Close()
	_ = os.Remove(f.Name())
}

// syncDir fsyncs a directory so a completed rename survives a crash.
//
//garlint:allow errlost -- durability hint after the rename has already landed; there is nothing left to unwind
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// verifyEnvelope checks the magic, length and trailing checksum and
// returns the gob payload. Every failure wraps ErrCorruptModels.
func verifyEnvelope(data []byte) ([]byte, error) {
	corrupt := func(reason string) error {
		return fmt.Errorf("core: loading models: %w: %s", ErrCorruptModels, reason)
	}
	if len(data) < envelopeOverhead {
		return nil, corrupt(fmt.Sprintf("stream too short (%d bytes): torn or truncated write", len(data)))
	}
	if m := string(data[:len(modelsMagic)]); m != modelsMagic && m != modelsMagicV1 {
		return nil, corrupt("missing model header")
	}
	body := data[len(modelsMagic):]
	want := binary.BigEndian.Uint64(body[:8])
	if got := uint64(len(body) - 16); got != want {
		return nil, corrupt(fmt.Sprintf("payload length %d does not match header %d: torn write", got, want))
	}
	payload := body[8 : 8+want]
	sum := binary.BigEndian.Uint64(body[8+want:])
	if crc64.Checksum(payload, modelsCRC) != sum {
		return nil, corrupt("checksum mismatch")
	}
	return payload, nil
}

// LoadModels reads models previously written by Save, verifying the
// envelope checksum first: a torn, truncated or bit-flipped stream is
// rejected with an error wrapping ErrCorruptModels before any decoding
// happens. Decoding never panics (a decoder panic on malformed input
// is recovered into an error).
func LoadModels(r io.Reader) (*Models, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: loading models: %w", err)
	}
	return decodeModels(data)
}

// decodeModels is LoadModels over a stream already in memory, such as
// a checkpoint's models section: it decodes from data without copying
// it first.
func decodeModels(data []byte) (m *Models, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			m, err = nil, fmt.Errorf("core: loading models: malformed model data: %v", rec)
		}
	}()
	payload, err := verifyEnvelope(data)
	if err != nil {
		return nil, err
	}
	var st modelsState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: loading models: %w", err)
	}
	if st.Encoder == nil {
		return nil, fmt.Errorf("core: loaded models have no encoder")
	}
	m = &Models{Encoder: st.Encoder}
	if st.HasRerank {
		if st.RerankNet == nil {
			return nil, fmt.Errorf("core: loaded models have a re-ranker without a network")
		}
		m.Reranker = &rerank.Model{
			X:   &rerank.Extractor{IDF: st.RerankIDF, Encoder: st.Encoder},
			Net: st.RerankNet,
		}
	}
	return m, nil
}
