// Package feedback is the durable append-only log (WAL) of the online
// learning loop. Serving accepts user feedback — "candidate i was
// right" or "the right SQL is this" — over POST /feedback, validates
// it against the tenant schema, and appends one Record per accepted
// signal; the background trainer replays the log, folds the pairs into
// the sample set, and retrains off the serving path.
//
// A segment is an internal/durable file: an 8-byte magic (version
// baked in), then internal/durable frames of [length, CRC-64, gob
// payload]. New segments and compactions are written with the durable
// atomic write (temp, fsync, rename, directory fsync); appends go in
// place. What is the WAL's own: the magic, the 1 MiB record limit, and
// the torn-tail policy — recovery scans segments oldest-first,
// truncates a torn tail (the un-acknowledged leftover of a crash
// mid-append) from the newest segment only, and skips CRC-corrupt
// records with typed errors rather than failing the open. An append is acknowledged only after fsync plus a read-back
// verification of the bytes on the page cache, so an acknowledged
// record survives both a crash and an injected bit flip; a failed
// append is rolled back by truncation (or the segment is sealed when
// even that fails), so it never poisons later records.
//
// Record sequence numbers are assigned once, monotonically, and never
// reused; Records replays the whole tree in segment order and drops
// non-increasing sequence numbers, which makes replay idempotent and
// makes a crash between the rename and the deletes of a Compact
// harmless (the duplicated prefix deduplicates away).
package feedback

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/durable"
)

// magic identifies a feedback WAL segment; the trailing "01" is the
// format version. Bump the suffix on any incompatible frame change.
const magic = "GARFBL01"

// maxRecordLen bounds one encoded record; a length field above it is
// structural corruption, not a large record.
const maxRecordLen = 1 << 20

// ErrCorrupt is wrapped by every error that reports damaged log bytes:
// a bad segment header, a CRC mismatch, an undecodable payload, or an
// impossible length field.
var ErrCorrupt = errors.New("feedback: log corrupt")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("feedback: log closed")

// Record is one accepted feedback signal: the user asked Question, and
// SQL is the answer they endorsed — either the candidate they picked
// (Source "chosen") or the correction they typed (Source "corrected").
// Seq is assigned by Append and is unique and monotonic across the
// whole log; Generation records the serving snapshot that produced the
// candidates, which the post-promotion regression detector uses.
type Record struct {
	Seq        uint64
	TimeUnix   int64
	Question   string
	SQL        string
	Source     string
	Generation uint64
}

// Record sources.
const (
	SourceChosen    = "chosen"
	SourceCorrected = "corrected"
)

// corrupt builds a typed corruption error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// appendRecord appends the frame of one record to dst.
func appendRecord(dst []byte, rec Record) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		return nil, fmt.Errorf("feedback: encoding record %d: %w", rec.Seq, err)
	}
	if payload.Len() > maxRecordLen {
		return nil, fmt.Errorf("feedback: record %d is %d bytes (limit %d)", rec.Seq, payload.Len(), maxRecordLen)
	}
	return durable.AppendFrame(dst, payload.Bytes()), nil
}

// decodePayload gob-decodes one frame payload. Decoding foreign bytes
// must never take the process down, so gob panics are contained here.
func decodePayload(payload []byte) (rec Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = corrupt("decoding record: panic: %v", r)
		}
	}()
	if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); derr != nil {
		return Record{}, corrupt("decoding record: %v", derr)
	}
	return rec, nil
}

// scanResult is the verdict on one segment's bytes.
type scanResult struct {
	// Records are the frames that decoded cleanly, in file order.
	Records []Record
	// Good is the offset just past the last structurally complete
	// frame: the only safe truncation point for a torn tail.
	Good int64
	// Corrupt counts structurally complete frames whose CRC or payload
	// failed — possible acknowledged data, lost and detected.
	Corrupt int
	// Errs carries one typed error per corruption (wrapping ErrCorrupt).
	Errs []error
	// TornBytes is the length of an incomplete trailing frame — the
	// normal leftover of a crash mid-append, provably un-acknowledged.
	TornBytes int64
	// Lost reports an impossible length field: the frame boundary is
	// gone and everything from Good onward is unreachable.
	Lost bool
}

// scanSegment walks one segment's bytes. A missing or damaged header
// is reported as an error (the file yields nothing); everything else —
// torn tails, CRC mismatches, bad length fields — is classified on the
// result so the caller decides what survives.
func scanSegment(data []byte) (scanResult, error) {
	var res scanResult
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return res, corrupt("bad segment header")
	}
	res.Good = int64(len(magic))
	fr := durable.NewFrameReader(bytes.NewReader(data[len(magic):]), maxRecordLen, nil)
	for {
		start := res.Good
		payload, err := fr.Next()
		switch {
		case errors.Is(err, io.EOF):
			return res, nil
		case errors.Is(err, durable.ErrTorn):
			res.TornBytes = int64(len(data)) - start
			return res, nil
		case errors.Is(err, durable.ErrLength):
			res.Lost = true
			res.Errs = append(res.Errs, corrupt("frame at offset %d: %v; %d trailing bytes unreachable", start, err, int64(len(data))-start))
			return res, nil
		}
		res.Good = int64(len(magic)) + fr.Offset()
		if err != nil { // a checksum mismatch: the frame boundary held
			res.Corrupt++
			res.Errs = append(res.Errs, corrupt("record CRC mismatch at offset %d", start))
			continue
		}
		rec, err := decodePayload(payload)
		if err != nil {
			res.Corrupt++
			res.Errs = append(res.Errs, err)
			continue
		}
		res.Records = append(res.Records, rec)
	}
}
