package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/durable"
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

// The model envelope is one internal/durable block: an 8-byte magic, a
// big-endian payload length, the gob payload, and a trailing
// CRC-64/ECMA of the payload. The trailing checksum makes torn writes
// detectable: a crash mid-write leaves a file whose checksum (or
// length) cannot match. Version 2 stores the encoder's embedding table
// as one flat float block.
const modelsMagic = "GARMDL2\n"

// modelsMagicV1 marks a version-1 stream, whose encoder table is gob
// row by row. LoadModels still reads it, so model files written by
// older builds keep loading; Save never writes it. An older build
// refuses a version-2 stream at the magic instead of deploying the
// empty encoder it would decode.
const modelsMagicV1 = "GARMDL1\n"

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
	data, err := m.encode()
	if err == nil {
		_, err = w.Write(data)
	}
	if err != nil {
		return fmt.Errorf("core: saving models: %w", err)
	}
	return nil
}

// SaveFile writes the models to path crash-safely through the
// internal/durable atomic write: a crash at any point leaves either
// the old complete file or the new complete file — never a torn one.
// (A torn write that somehow survives is still caught by LoadModels
// via the trailing checksum.)
func (m *Models) SaveFile(path string) error {
	data, err := m.encode()
	if err == nil {
		err = durable.WriteFile(path, ".gar-models-*.tmp", data, nil)
	}
	if err != nil {
		return fmt.Errorf("core: saving models: %w", err)
	}
	return nil
}

// encode renders the models as one envelope.
func (m *Models) encode() ([]byte, error) {
	var payload bytes.Buffer
	st := modelsState{Encoder: m.Encoder}
	if m.Reranker != nil {
		st.HasRerank = true
		st.RerankNet = m.Reranker.Net
		st.RerankIDF = m.Reranker.X.IDF
	}
	if err := gob.NewEncoder(&payload).Encode(&st); err != nil {
		return nil, err
	}
	return durable.AppendBlock(nil, modelsMagic, payload.Bytes()), nil
}

// verifyEnvelope checks the magic, length and trailing checksum and
// returns the gob payload. Every failure wraps ErrCorruptModels.
func verifyEnvelope(data []byte) ([]byte, error) {
	payload, rest, err := durable.ParseBlock(data, uint64(len(data)), modelsMagic, modelsMagicV1)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("%d bytes after the checksum: torn write", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("core: loading models: %w: %v", ErrCorruptModels, err)
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
