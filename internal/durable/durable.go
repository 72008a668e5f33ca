// Package durable is the one implementation of what the server's four
// on-disk formats share: the models envelope (GARMDL2), checkpoints
// (GARCKPT1), spill runs (GARSPIL1) and feedback WAL segments
// (GARFBL01).
//
//   - Checksum is the CRC-64/ECMA every format uses.
//   - File and WriteFile write a file atomically. The bytes go to a
//     temp file in the target directory through the faults.FSWrite
//     point; Commit then fires faults.FSSync, fsyncs, closes, fires
//     faults.FSRename, renames over the target and fsyncs the
//     directory. A failure at any step removes the temp file and leaves
//     the target as it was.
//   - A frame, [u32 length][u64 CRC][payload], is the record unit of
//     spill runs and WAL segments (AppendFrame, FrameReader).
//   - A block, magic + u64 length + payload + u64 CRC, is the models
//     envelope and the checkpoint manifest header (AppendBlock,
//     ParseBlock).
//   - Sweep removes the temp files an interrupted write left behind,
//     and ListNumbered lists a directory's numbered series (checkpoint
//     generations, WAL segments) in counter order.
//
// Every integer is big-endian and every CRC covers the payload alone.
// What stays with each format is its magic, its length limits and what
// a torn or corrupt tail means to it: the WAL truncates a torn tail and
// skips a corrupt record, a spill reader ends at either, and a
// checkpoint or models file is rejected whole. Each format wraps the
// errors here in its own sentinel.
package durable

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/faults"
)

var table = crc64.MakeTable(crc64.ECMA)

// Checksum returns the CRC-64/ECMA of b.
func Checksum(b []byte) uint64 { return crc64.Checksum(b, table) }

// The integrity errors of frames and blocks. Callers tell them apart
// with errors.Is and wrap them in their format's own sentinel.
var (
	// ErrTorn reports input that ends inside a frame or block: what a
	// crash in the middle of a write leaves behind.
	ErrTorn = errors.New("durable: torn")
	// ErrLength reports a length word above the caller's limit: a
	// corrupt header, not a large payload.
	ErrLength = errors.New("durable: length exceeds limit")
	// ErrChecksum reports a payload whose CRC-64 does not match.
	ErrChecksum = errors.New("durable: checksum mismatch")
	// ErrMagic reports a block that does not start with the expected
	// magic.
	ErrMagic = errors.New("durable: wrong magic")
)

// File is a file being written atomically. Until Commit returns nil
// its bytes exist only under a temp name; after a failed Commit or an
// Abort they do not exist at all. Not safe for concurrent use.
type File struct {
	f    *os.File // nil once committed or aborted
	name string
	bw   *bufio.Writer
	inj  *faults.Injector
}

// Create starts an atomic file: a temp file in dir named after pattern
// (os.CreateTemp syntax) that begins with header. The header is
// written without passing the fault point, so a fault plan aimed at
// the records that follow never lands in it; every later Write passes
// the point. inj may be nil.
func Create(dir, pattern, header string, inj *faults.Injector) (*File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, fmt.Errorf("creating temp file: %w", err)
	}
	a := &File{f: f, name: f.Name(), bw: bufio.NewWriterSize(f, 1<<16), inj: inj}
	if _, err := a.bw.WriteString(header); err != nil {
		a.Abort()
		return nil, fmt.Errorf("writing %s: %w", filepath.Base(a.name), err)
	}
	return a, nil
}

// Name returns the temp file's path.
func (a *File) Name() string { return a.name }

// Write passes p through the faults.FSWrite point and writes what the
// point returns. The fault may shorten or corrupt the bytes; its error
// is the write's error, reported after the shortened bytes are written,
// as a crash or a full disk would leave them.
func (a *File) Write(p []byte) (int, error) {
	buf, ferr := a.inj.FireData(faults.FSWrite, p)
	n, err := a.bw.Write(buf)
	if err != nil {
		return n, err
	}
	return n, ferr
}

// Commit publishes the file under the path final, which must be in the
// temp file's directory: flush, the FSSync point, fsync, close, the
// FSRename point, rename, and an fsync of the directory so that the
// rename survives a crash. On any failure the temp file is removed and
// final is left as it was.
//
//garlint:allow ctxpass errlost -- deliberately synchronous: the fsync/rename order is the crash-safety contract and must run to completion, and context.Background only feeds instantaneous test fault points; the directory fsync after the rename is a durability hint with nothing left to unwind
func (a *File) Commit(final string) error {
	if a.f == nil {
		return fmt.Errorf("committing %s: file already finished", filepath.Base(a.name))
	}
	base := filepath.Base(a.name)
	fail := func(step string, err error) error {
		a.Abort()
		return fmt.Errorf("%s %s: %w", step, base, err)
	}
	if err := a.bw.Flush(); err != nil {
		return fail("writing", err)
	}
	if err := a.inj.Fire(context.Background(), faults.FSSync); err != nil {
		return fail("syncing", err)
	}
	if err := a.f.Sync(); err != nil {
		return fail("syncing", err)
	}
	if err := a.f.Close(); err != nil {
		return fail("closing", err)
	}
	if err := a.inj.Fire(context.Background(), faults.FSRename); err != nil {
		return fail("renaming", err)
	}
	if err := os.Rename(a.name, final); err != nil {
		return fail("renaming", err)
	}
	a.f = nil
	if d, err := os.Open(filepath.Dir(final)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Abort removes the temp file. It is a no-op after Commit or an
// earlier Abort.
//
//garlint:allow errlost -- best-effort cleanup on a path that is already failing or abandoned; the caller's error is the one to surface
func (a *File) Abort() {
	if a.f == nil {
		return
	}
	_ = a.f.Close() // fails harmlessly when Commit already closed it
	_ = os.Remove(a.name)
	a.f = nil
}

// WriteFile writes data to path atomically through a temp file named
// after pattern in path's directory: one Write, then Commit.
func WriteFile(path, pattern string, data []byte, inj *faults.Injector) error {
	a, err := Create(filepath.Dir(path), pattern, "", inj)
	if err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Abort()
		return fmt.Errorf("writing %s: %w", filepath.Base(a.name), err)
	}
	return a.Commit(path)
}

// Sweep removes every file in dir whose name matches pattern
// (filepath.Match syntax) and returns the removed paths. An empty dir
// or a missing directory holds nothing to sweep. A file that vanished
// meanwhile is not an error; any other failure is reported after the
// remaining files were tried.
func Sweep(dir, pattern string) ([]string, error) {
	if dir == "" {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return nil, fmt.Errorf("sweeping %s: %w", pattern, err)
	}
	var removed []string
	var firstErr error
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			if firstErr == nil && !errors.Is(err, fs.ErrNotExist) {
				firstErr = fmt.Errorf("sweeping: %w", err)
			}
			continue
		}
		removed = append(removed, p)
	}
	return removed, firstErr
}

// Numbered is one file of a numbered series: a name whose pattern
// captures a decimal counter, such as gen-{20 digits}.ckpt.
type Numbered struct {
	N     uint64
	Path  string
	Entry fs.DirEntry
}

// ListNumbered returns the files of dir whose names match re, in
// ascending order of the counter re's first submatch captures. Names
// that do not match, directories with matching names and counters that
// overflow uint64 are skipped. A missing directory is os.ReadDir's
// error (fs.ErrNotExist), for the caller to treat as empty or as a
// failure.
func ListNumbered(dir string, re *regexp.Regexp) ([]Numbered, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Numbered
	for _, e := range entries {
		m := re.FindStringSubmatch(e.Name())
		if m == nil || e.IsDir() {
			continue
		}
		n, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, Numbered{N: n, Path: filepath.Join(dir, e.Name()), Entry: e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N < out[j].N })
	return out, nil
}
