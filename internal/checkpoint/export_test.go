package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc64"
)

// Test-only raw encoders: build envelopes Encode refuses to, so the
// decoder's rejection paths (bad versions, lying section tables) can be
// exercised with otherwise well-formed framing.

// sectionCRC exposes the payload checksum for hand-built manifests.
func sectionCRC(b []byte) uint64 { return crc64.Checksum(b, crcTable) }

// frameManifestBytes wraps arbitrary bytes in valid magic + length +
// CRC framing, so they reach the gob decoder intact.
func frameManifestBytes(mbytes []byte) []byte {
	out := bytes.NewBuffer(nil)
	out.WriteString(magic)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(mbytes)))
	out.Write(n[:])
	out.Write(mbytes)
	binary.BigEndian.PutUint64(n[:], crc64.Checksum(mbytes, crcTable))
	out.Write(n[:])
	return out.Bytes()
}

// encodeRaw gob-encodes the manifest exactly as given — no version
// stamping, no section table recomputation — frames it, and appends
// the body verbatim.
func encodeRaw(m Manifest, body []byte) ([]byte, error) {
	var mbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(&m); err != nil {
		return nil, err
	}
	return append(frameManifestBytes(mbuf.Bytes()), body...), nil
}

// encodeFormat is Encode stamping an arbitrary format version: an
// otherwise valid envelope as a build of another version writes it.
func encodeFormat(m Manifest, sections []Section, version int) ([]byte, error) {
	m.FormatVersion = version
	m.Sections = nil
	var body []byte
	for _, s := range sections {
		m.Sections = append(m.Sections, SectionInfo{Name: s.Name, Length: int64(len(s.Data)), CRC: sectionCRC(s.Data)})
		body = append(body, s.Data...)
	}
	return encodeRaw(m, body)
}
