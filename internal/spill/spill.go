// Package spill provides crash-safe scratch files for pool
// construction under memory pressure. When the memory-budget
// accountant (internal/memgov) denies further RAM growth, the pool
// builder streams candidate records into spill runs and replays them
// with an external merge — pool size becomes bounded by disk, not RAM.
//
// Spill files reuse the durable-state discipline of the checkpoint and
// feedback stores: a magic header, per-frame length + CRC-64/ECMA
// envelopes, writes that go temp + fsync + rename so a finished run is
// all-or-nothing, torn-tail-tolerant reads that stop cleanly at a
// truncated final frame, and a startup sweep that removes whatever an
// interrupted process left behind. The same internal/faults points
// (FSWrite, FSSync, FSRename on the write side, FSRead on the merge
// side) make the failure matrix deterministically testable.
//
// Unlike checkpoints, spill runs are per-operation scratch: they carry
// no versioned manifest, and any run found at startup is garbage by
// definition (its operation died) — Sweep removes finished runs and
// temps alike.
package spill

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

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

// frameHeader is the per-frame envelope: a 4-byte big-endian payload
// length followed by an 8-byte CRC-64/ECMA of the payload.
const frameHeader = 12

// maxFrame bounds the allocation a corrupt length field can demand.
const maxFrame = 64 << 20

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt reports a frame whose envelope fails validation — a
// checksum mismatch or an impossible length. A torn tail (truncated
// final frame) is NOT corruption; readers report it via Torn.
var ErrCorrupt = errors.New("spill: corrupt frame")

// Writer streams frames into one spill run. Append buffers through
// bufio; Finish makes the run durable and atomic (flush, fsync, rename
// into place, directory fsync). Until Finish returns nil the run does
// not exist under its final name. Not safe for concurrent use.
type Writer struct {
	f      *os.File
	bw     *bufio.Writer
	dir    string
	prefix string
	inj    *faults.Injector
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
	f, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return nil, fmt.Errorf("spill: creating temp file: %w", err)
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), dir: dir, prefix: prefix, inj: inj}
	if _, err := w.bw.WriteString(magic); err != nil {
		w.Abort()
		return nil, fmt.Errorf("spill: writing header: %w", err)
	}
	w.bytes = int64(len(magic))
	return w, nil
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
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(frame[4:12], crc64.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)

	// The write fault point may truncate or corrupt the frame; what it
	// returns is what reaches the run, and its error is the write's.
	buf, ferr := w.inj.FireData(faults.FSWrite, frame)
	if len(buf) > 0 {
		if _, werr := w.bw.Write(buf); werr != nil {
			w.err = fmt.Errorf("spill: writing frame: %w", werr)
			return w.err
		}
	}
	if ferr != nil {
		w.err = fmt.Errorf("spill: writing frame: %w", ferr)
		return w.err
	}
	w.frames++
	w.bytes += int64(len(buf))
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
//
//garlint:allow ctxpass -- deliberately synchronous: the fsync/rename sequencing is the crash-safety contract and must run to completion; context.Background only feeds instantaneous test fault points
func (w *Writer) Finish() (string, error) {
	if w.done {
		return "", fmt.Errorf("spill: finish after finish")
	}
	w.done = true
	if w.err != nil {
		w.discard()
		return "", w.err
	}
	name := filepath.Base(w.f.Name())
	if err := w.bw.Flush(); err != nil {
		w.discard()
		return "", fmt.Errorf("spill: flushing %s: %w", name, err)
	}
	if err := w.inj.Fire(context.Background(), faults.FSSync); err != nil {
		w.discard()
		return "", fmt.Errorf("spill: syncing %s: %w", name, err)
	}
	if err := w.f.Sync(); err != nil {
		w.discard()
		return "", fmt.Errorf("spill: syncing %s: %w", name, err)
	}
	if err := w.f.Close(); err != nil {
		w.remove()
		return "", fmt.Errorf("spill: closing %s: %w", name, err)
	}
	if err := w.inj.Fire(context.Background(), faults.FSRename); err != nil {
		w.remove()
		return "", fmt.Errorf("spill: renaming %s into place: %w", name, err)
	}
	// Reuse the temp file's random component so the final name is
	// unique without another source of randomness.
	unique := strings.TrimSuffix(strings.TrimPrefix(name, tmpPrefix), tmpSuffix)
	final := filepath.Join(w.dir, w.prefix+"-"+unique+runSuffix)
	if err := os.Rename(w.f.Name(), final); err != nil {
		w.remove()
		return "", fmt.Errorf("spill: renaming %s into place: %w", name, err)
	}
	w.f = nil
	syncDir(w.dir)
	return final, nil
}

// Abort discards an unfinished run. Safe to call after Finish (no-op)
// and more than once.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.discard()
}

// discard closes and removes the temp file after a failure that is
// already being reported.
//
//garlint:allow errlost -- best-effort cleanup on a path that is already failing; the original error is the one to surface
func (w *Writer) discard() {
	if w.f == nil {
		return
	}
	_ = w.f.Close()
	_ = os.Remove(w.f.Name())
	w.f = nil
}

// remove deletes the temp file when the handle is already closed.
//
//garlint:allow errlost -- best-effort cleanup on a path that is already failing; the original error is the one to surface
func (w *Writer) remove() {
	if w.f == nil {
		return
	}
	_ = os.Remove(w.f.Name())
	w.f = nil
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

// Reader iterates the frames of one spill run. A truncated final frame
// — the signature a crash mid-write leaves — ends iteration cleanly
// (io.EOF) with Torn reporting true; a checksum mismatch or impossible
// length anywhere is ErrCorrupt. Not safe for concurrent use.
type Reader struct {
	f      *os.File
	br     *bufio.Reader
	path   string
	inj    *faults.Injector
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
		closeQuiet(f)
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	return &Reader{f: f, br: br, path: path, inj: inj}, nil
}

// Next returns the next frame's payload. io.EOF ends iteration — both
// at a clean end of file and at a torn tail (check Torn to tell the
// two apart). The returned slice is freshly allocated and owned by the
// caller.
func (r *Reader) Next() ([]byte, error) {
	if r.done {
		return nil, io.EOF
	}
	hdr := make([]byte, frameHeader)
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		r.done = true
		if errors.Is(err, io.ErrUnexpectedEOF) {
			r.torn = true // partial header: the crash point of a frame write
			return nil, io.EOF
		}
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("spill: reading %s: %w", filepath.Base(r.path), err)
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint64(hdr[4:12])
	if length > maxFrame {
		r.done = true
		return nil, fmt.Errorf("%w: %s: frame length %d exceeds limit", ErrCorrupt, filepath.Base(r.path), length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		r.done = true
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			r.torn = true // truncated payload: same crash signature
			return nil, io.EOF
		}
		return nil, fmt.Errorf("spill: reading %s: %w", filepath.Base(r.path), err)
	}
	// The read fault point models media rot and failing disks: what it
	// returns is what the checksum judges, and its error is the read's.
	payload, ferr := r.inj.FireData(faults.FSRead, payload)
	if ferr != nil {
		r.done = true
		return nil, fmt.Errorf("spill: reading %s: %w", filepath.Base(r.path), ferr)
	}
	if crc64.Checksum(payload, crcTable) != want {
		r.done = true
		return nil, fmt.Errorf("%w: %s: frame %d checksum mismatch", ErrCorrupt, filepath.Base(r.path), r.frames)
	}
	r.frames++
	return payload, nil
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

// closeQuiet closes a file on a path that is already reporting a more
// specific error.
//
//garlint:allow errlost -- best-effort cleanup on a path that is already failing; the original error is the one to surface
func closeQuiet(f *os.File) {
	_ = f.Close()
}

// CleanTemp removes temp files abandoned by interrupted writes and
// returns the removed paths. Run it at startup, before any new write
// can have a temp file legitimately in flight.
func CleanTemp(dir string) ([]string, error) {
	return removeGlob(dir, tmpPattern)
}

// Sweep removes every spill artifact — temps and finished runs alike —
// and returns the removed paths. Spill runs are per-operation scratch,
// so anything present at startup belongs to an operation that died
// with the previous process.
func Sweep(dir string) ([]string, error) {
	removed, err := removeGlob(dir, tmpPattern)
	if err != nil {
		return removed, err
	}
	runs, err := removeGlob(dir, "*"+runSuffix)
	return append(removed, runs...), err
}

func removeGlob(dir, pattern string) ([]string, error) {
	if dir == "" {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return nil, fmt.Errorf("spill: scanning %s: %w", pattern, err)
	}
	var removed []string
	var firstErr error
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			if firstErr == nil && !errors.Is(err, fs.ErrNotExist) {
				firstErr = fmt.Errorf("spill: sweeping: %w", err)
			}
			continue
		}
		removed = append(removed, p)
	}
	return removed, firstErr
}
