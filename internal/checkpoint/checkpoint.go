package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
)

// Format is the layout version this package writes. Decode rejects any
// other version with ErrIncompatible, so a process can change the
// layout without another build half-loading it. The envelope framing
// is the same in every version; the version names what the sections
// mean. Version 2 stores float tables (the dialect vectors, the
// encoder's embedding table) as flat little-endian blocks where
// version 1 stored them as gob, so a version-1 checkpoint is
// incompatible here and recovery skips it.
const Format = 2

// ErrCorrupt is wrapped by every integrity failure of Decode: a torn
// or truncated file, a bit flip, a manifest that contradicts the bytes
// around it. Recovery treats a corrupt checkpoint as absent and falls
// back to an older generation.
var ErrCorrupt = errors.New("checkpoint corrupt")

// ErrIncompatible is wrapped when a checkpoint is structurally intact
// but not loadable by this process — an unknown format version, or (at
// a higher layer) a snapshot for a different database. Recovery skips
// it the same way it skips corruption.
var ErrIncompatible = errors.New("checkpoint incompatible")

// The envelope layout, in file order:
//
//	magic                     8 bytes  "GARCKPT1"
//	manifest length           8 bytes  big-endian
//	manifest                  gob of Manifest
//	manifest CRC-64/ECMA      8 bytes  big-endian, over the gob bytes
//	section payloads          raw, in Manifest.Sections order
//
// Every section's length and CRC-64 live in the manifest, so one
// manifest read decides exactly which byte ranges are trustworthy; a
// file that disagrees with its manifest anywhere is rejected whole.
const magic = "GARCKPT1"

// maxManifestLen bounds the manifest allocation before any decoding: a
// real manifest is a few hundred bytes, so a larger claim is hostile or
// torn input, not a big checkpoint.
const maxManifestLen = 1 << 20

// maxSections bounds the section count a manifest may declare.
const maxSections = 64

// maxSectionName bounds one declared section name.
const maxSectionName = 128

var crcTable = crc64.MakeTable(crc64.ECMA)

// headerOverhead is the fixed non-manifest prefix: magic + length word.
const headerOverhead = len(magic) + 8

// SectionInfo describes one section in the manifest: its name, payload
// length and payload checksum.
type SectionInfo struct {
	Name   string
	Length int64
	CRC    uint64
}

// Manifest is the self-describing header of a checkpoint.
type Manifest struct {
	// FormatVersion is the envelope version (Format).
	FormatVersion int
	// Generation is the serving-snapshot generation the checkpoint
	// captures; it is also the file's identity in a Store.
	Generation uint64
	// Database names the database the snapshot serves; a restore onto a
	// system for a different database must refuse it.
	Database string
	// CreatedUnix is the wall-clock write time (seconds).
	CreatedUnix int64
	// Sections lists every payload in file order.
	Sections []SectionInfo
}

// Section is one named payload of a checkpoint.
type Section struct {
	Name string
	Data []byte
}

// Checkpoint is a fully validated decoded checkpoint: the manifest and
// every section payload, each proven against its manifest checksum.
type Checkpoint struct {
	Manifest Manifest
	sections map[string][]byte
}

// Section returns the named payload, or nil when the checkpoint has no
// such section.
func (c *Checkpoint) Section(name string) []byte { return c.sections[name] }

// SectionNames returns the section names in file order.
func (c *Checkpoint) SectionNames() []string {
	out := make([]string, len(c.Manifest.Sections))
	for i, s := range c.Manifest.Sections {
		out[i] = s.Name
	}
	return out
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("checkpoint: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Encode renders the manifest and sections as one envelope byte slice.
// The manifest's FormatVersion and Sections are filled in from the
// arguments; callers set Generation, Database and CreatedUnix.
func Encode(m Manifest, sections []Section) ([]byte, error) {
	m.FormatVersion = Format
	m.Sections = m.Sections[:0]
	total := 0
	for _, s := range sections {
		if s.Name == "" || len(s.Name) > maxSectionName {
			return nil, fmt.Errorf("checkpoint: invalid section name %q", s.Name)
		}
		m.Sections = append(m.Sections, SectionInfo{
			Name:   s.Name,
			Length: int64(len(s.Data)),
			CRC:    crc64.Checksum(s.Data, crcTable),
		})
		total += len(s.Data)
	}
	if len(m.Sections) > maxSections {
		return nil, fmt.Errorf("checkpoint: %d sections exceed the format limit %d", len(m.Sections), maxSections)
	}

	var mbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(&m); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	if mbuf.Len() > maxManifestLen {
		return nil, fmt.Errorf("checkpoint: manifest of %d bytes exceeds the format limit", mbuf.Len())
	}

	out := bytes.NewBuffer(make([]byte, 0, headerOverhead+mbuf.Len()+8+total))
	out.WriteString(magic)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(mbuf.Len()))
	out.Write(n[:])
	out.Write(mbuf.Bytes())
	binary.BigEndian.PutUint64(n[:], crc64.Checksum(mbuf.Bytes(), crcTable))
	out.Write(n[:])
	for _, s := range sections {
		out.Write(s.Data)
	}
	return out.Bytes(), nil
}

// Decode parses and fully validates an envelope: magic, bounded
// manifest, manifest checksum, section count/name/length sanity, and
// every section checksum. Any disagreement between the manifest and
// the bytes is ErrCorrupt; an unknown format version is
// ErrIncompatible. Decode never panics, for any input.
func Decode(data []byte) (*Checkpoint, error) {
	m, bodyOff, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if len(m.Sections) > maxSections {
		return nil, corrupt("%d sections exceed the format limit %d", len(m.Sections), maxSections)
	}

	body := data[bodyOff:]
	ck := &Checkpoint{Manifest: *m, sections: make(map[string][]byte, len(m.Sections))}
	var off uint64
	for _, s := range m.Sections {
		if s.Name == "" || len(s.Name) > maxSectionName {
			return nil, corrupt("invalid section name %q", s.Name)
		}
		if _, dup := ck.sections[s.Name]; dup {
			return nil, corrupt("duplicate section %q", s.Name)
		}
		if s.Length < 0 || uint64(s.Length) > uint64(len(body))-off {
			return nil, corrupt("section %q claims %d bytes beyond the file: torn write", s.Name, s.Length)
		}
		payload := body[off : off+uint64(s.Length)]
		if crc64.Checksum(payload, crcTable) != s.CRC {
			return nil, corrupt("section %q checksum mismatch", s.Name)
		}
		ck.sections[s.Name] = payload
		off += uint64(s.Length)
	}
	if off != uint64(len(body)) {
		return nil, corrupt("%d trailing bytes beyond the declared sections", uint64(len(body))-off)
	}
	return ck, nil
}

// DecodeManifest validates the envelope up to and including the
// manifest checksum and returns the manifest alone, without touching
// (or verifying) the section payloads. It is the cheap path for
// listing and inspection; use Decode before trusting any payload.
func DecodeManifest(data []byte) (*Manifest, error) {
	m, _, err := decodeHeader(data)
	return m, err
}

// decodeHeader is the shared manifest prefix of Decode and
// DecodeManifest: it validates magic, manifest bounds, manifest
// checksum and format version, and returns the manifest plus the
// offset where the section payloads begin.
func decodeHeader(data []byte) (m *Manifest, bodyOff int, err error) {
	// gob is not hardened against hostile input; the manifest bytes are
	// checksummed before decoding, but CRC-64 is not cryptographic, so
	// a crafted stream could still reach the decoder. Contain it.
	defer func() {
		if rec := recover(); rec != nil {
			m, bodyOff, err = nil, 0, corrupt("malformed manifest: %v", rec)
		}
	}()
	if len(data) < headerOverhead+8 {
		return nil, 0, corrupt("file of %d bytes is shorter than the fixed header", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, 0, corrupt("missing checkpoint magic")
	}
	mlen := binary.BigEndian.Uint64(data[len(magic):headerOverhead])
	if mlen == 0 || mlen > maxManifestLen {
		return nil, 0, corrupt("manifest length %d outside (0, %d]", mlen, maxManifestLen)
	}
	if mlen > uint64(len(data)-headerOverhead-8) {
		return nil, 0, corrupt("manifest length %d exceeds the file: torn or truncated write", mlen)
	}
	mbytes := data[headerOverhead : headerOverhead+int(mlen)]
	wantCRC := binary.BigEndian.Uint64(data[headerOverhead+int(mlen) : headerOverhead+int(mlen)+8])
	if crc64.Checksum(mbytes, crcTable) != wantCRC {
		return nil, 0, corrupt("manifest checksum mismatch")
	}
	var out Manifest
	if err := gob.NewDecoder(bytes.NewReader(mbytes)).Decode(&out); err != nil {
		return nil, 0, corrupt("manifest does not decode: %v", err)
	}
	if out.FormatVersion != Format {
		return nil, 0, fmt.Errorf("checkpoint: %w: format version %d, this build reads %d",
			ErrIncompatible, out.FormatVersion, Format)
	}
	return &out, headerOverhead + int(mlen) + 8, nil
}
