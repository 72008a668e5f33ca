// Package spill provides crash-safe scratch files for pool
// construction under memory pressure. When the memory-budget
// accountant (internal/memgov) denies further RAM growth, the pool
// builder streams candidate records into spill runs and replays them
// with an external merge — pool size becomes bounded by disk, not RAM.
//
// A spill run is an internal/durable file: the magic "GARSPIL1", then
// frames of [u32 length][u64 CRC-64/ECMA][payload]. A run is written
// as a durable atomic file, so a finished run is all-or-nothing; reads
// stop cleanly at a truncated final frame; and a startup sweep removes
// whatever an interrupted process left behind. The internal/faults
// points (FSWrite, FSSync, FSRename on the write side, FSRead on the
// merge side) make the failure matrix deterministically testable. What
// is spill's own: the magic, the 64 MiB frame limit, and the policy
// that a torn tail ends a run cleanly while a checksum mismatch or an
// impossible length is ErrCorrupt.
//
// Unlike checkpoints, spill runs are per-operation scratch: they carry
// no versioned manifest, and any run found at startup is garbage by
// definition (its operation died) — Sweep removes finished runs and
// temps alike.
package spill

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/durable"
	"repro/internal/faults"
)

// magic identifies a spill run file; the trailing 1 is the format
// version.
const magic = "GARSPIL1"

// tmpSuffix marks in-progress runs; the leading-dot temp pattern keeps
// them out of casual globs.
const (
	tmpPrefix  = ".spill-"
	tmpSuffix  = ".tmp"
	runSuffix  = ".spill"
	tmpPattern = tmpPrefix + "*" + tmpSuffix
)

// maxFrame bounds the allocation a corrupt length field can demand.
const maxFrame = 64 << 20

// ErrCorrupt reports a frame whose envelope fails validation — a
// checksum mismatch or an impossible length. A torn tail (truncated
// final frame) is NOT corruption; readers report it via Torn.
var ErrCorrupt = errors.New("spill: corrupt frame")

// Writer streams frames into one spill run. Append buffers; Finish
// makes the run durable and atomic (flush, fsync, rename into place,
// directory fsync). Until Finish returns nil the run does not exist
// under its final name. Not safe for concurrent use.
type Writer struct {
	f      *durable.File
	dir    string
	prefix string
	buf    []byte // the frame being appended, reused across Appends
	frames int
	bytes  int64
	err    error // sticky: first failure poisons the run
	done   bool
}

// Create opens a new spill run as a temp file in dir (created if
// needed). prefix namespaces the final run name so concurrent
// operations sharing a directory cannot collide. inj, when non-nil,
// fires at the filesystem fault points of every write; nil is inert.
func Create(dir, prefix string, inj *faults.Injector) (*Writer, error) {
	if dir == "" {
		return nil, fmt.Errorf("spill: empty spill directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: opening spill directory: %w", err)
	}
	f, err := durable.Create(dir, tmpPattern, magic, inj)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &Writer{f: f, dir: dir, prefix: prefix, bytes: int64(len(magic))}, nil
}

// Append writes one frame. The first failure poisons the writer: every
// later Append and Finish returns the same error, so callers can
// detect a dead run at the end of a tight loop.
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		return fmt.Errorf("spill: append after finish")
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("spill: frame of %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	w.buf = durable.AppendFrame(w.buf[:0], payload)
	n, err := w.f.Write(w.buf)
	if err != nil {
		w.err = fmt.Errorf("spill: writing frame: %w", err)
		return w.err
	}
	w.frames++
	w.bytes += int64(n)
	return nil
}

// Frames returns how many frames have been appended successfully.
func (w *Writer) Frames() int { return w.frames }

// Bytes returns how many bytes the run holds so far (header included),
// the rotation signal for bounded run sizes.
func (w *Writer) Bytes() int64 { return w.bytes }

// Finish makes the run durable and atomic: flush, fsync, close, rename
// from the temp name to the final run name, directory fsync. On
// success it returns the final path; on any failure the temp file is
// discarded and no run exists. A poisoned writer fails with its sticky
// error without touching the disk further.
func (w *Writer) Finish() (string, error) {
	if w.done {
		return "", fmt.Errorf("spill: finish after finish")
	}
	w.done = true
	if w.err != nil {
		w.f.Abort()
		return "", w.err
	}
	// Reuse the temp file's random component so the final name is
	// unique without another source of randomness.
	name := filepath.Base(w.f.Name())
	unique := strings.TrimSuffix(strings.TrimPrefix(name, tmpPrefix), tmpSuffix)
	final := filepath.Join(w.dir, w.prefix+"-"+unique+runSuffix)
	if err := w.f.Commit(final); err != nil {
		return "", fmt.Errorf("spill: %w", err)
	}
	return final, nil
}

// Abort discards an unfinished run. Safe to call after Finish (no-op)
// and more than once.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Abort()
}

// Reader iterates the frames of one spill run. A truncated final frame
// — the signature a crash mid-write leaves — ends iteration cleanly
// (io.EOF) with Torn reporting true; a checksum mismatch or impossible
// length anywhere is ErrCorrupt. Not safe for concurrent use.
type Reader struct {
	f      *os.File
	fr     *durable.FrameReader
	path   string
	frames int
	torn   bool
	done   bool
}

// Open opens a finished spill run and validates its magic header. inj,
// when non-nil, fires the FSRead data point on every frame payload.
func Open(path string, inj *faults.Injector) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(br, hdr); err != nil || string(hdr) != magic {
		return nil, errors.Join(fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path)), f.Close())
	}
	return &Reader{f: f, fr: durable.NewFrameReader(br, maxFrame, inj), path: path}, nil
}

// Next returns the next frame's payload. io.EOF ends iteration — both
// at a clean end of file and at a torn tail (check Torn to tell the
// two apart). The returned slice is freshly allocated and owned by the
// caller.
func (r *Reader) Next() ([]byte, error) {
	if r.done {
		return nil, io.EOF
	}
	payload, err := r.fr.Next()
	if err == nil {
		r.frames++
		return payload, nil
	}
	r.done = true
	base := filepath.Base(r.path)
	switch {
	case errors.Is(err, io.EOF):
		return nil, io.EOF
	case errors.Is(err, durable.ErrTorn):
		r.torn = true // the crash signature of a frame write
		return nil, io.EOF
	case errors.Is(err, durable.ErrLength):
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, base, err)
	case errors.Is(err, durable.ErrChecksum):
		return nil, fmt.Errorf("%w: %s: frame %d checksum mismatch", ErrCorrupt, base, r.frames)
	default: // the disk, or the FSRead fault point
		return nil, fmt.Errorf("spill: reading %s: %w", base, err)
	}
}

// Frames returns how many frames have been read successfully.
func (r *Reader) Frames() int { return r.frames }

// Torn reports whether iteration ended at a truncated final frame.
func (r *Reader) Torn() bool { return r.torn }

// Path returns the run's file path.
func (r *Reader) Path() string { return r.path }

// Close releases the underlying file.
func (r *Reader) Close() error {
	r.done = true
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// CleanTemp removes temp files abandoned by interrupted writes and
// returns the removed paths. Run it at startup, before any new write
// can have a temp file legitimately in flight.
func CleanTemp(dir string) ([]string, error) {
	return sweep(dir, tmpPattern)
}

// Sweep removes every spill artifact — temps and finished runs alike —
// and returns the removed paths. Spill runs are per-operation scratch,
// so anything present at startup belongs to an operation that died
// with the previous process.
func Sweep(dir string) ([]string, error) {
	removed, err := sweep(dir, tmpPattern)
	if err != nil {
		return removed, err
	}
	runs, err := sweep(dir, "*"+runSuffix)
	return append(removed, runs...), err
}

func sweep(dir, pattern string) ([]string, error) {
	removed, err := durable.Sweep(dir, pattern)
	if err != nil {
		return removed, fmt.Errorf("spill: %w", err)
	}
	return removed, nil
}
