package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/faults"
)

// fileName is the on-disk name of one checkpoint generation. The
// zero-padded decimal makes lexical order equal numeric order, so a
// directory listing is already generation-sorted.
const fileName = "gen-%020d.ckpt"

// tmpPattern is the os.CreateTemp pattern of in-progress writes; the
// leading dot keeps them out of casual globs and List.
const tmpPattern = ".ckpt-*.tmp"

var fileRE = regexp.MustCompile(`^gen-(\d{20})\.ckpt$`)

// Store manages a directory of checkpoint files, one per generation.
// All writes go through the temp+fsync+rename discipline, so the
// directory only ever contains complete files (modulo media
// corruption, which Decode catches) plus temp files from interrupted
// writes, which CleanTemp removes.
//
// A Store is safe for concurrent use by one writer and any readers;
// concurrent writers of the same generation last-write-win atomically.
type Store struct {
	dir string
	// inj, when set, fires at the filesystem fault points of every
	// write; see internal/faults. Test-harness hook.
	inj *faults.Injector
}

// Open creates the directory if needed and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: opening state directory: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the state directory.
func (st *Store) Dir() string { return st.dir }

// SetFaultInjector installs a fault injector fired at the FSWrite,
// FSSync and FSRename points of every subsequent write. Pass nil to
// disable. Intended for the crash-consistency test harness.
func (st *Store) SetFaultInjector(inj *faults.Injector) { st.inj = inj }

// Path returns the file path of a generation (whether or not it exists).
func (st *Store) Path(gen uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf(fileName, gen))
}

// Write encodes the checkpoint and persists it crash-safely under its
// generation's name: the envelope goes to a temp file in the same
// directory, is fsynced, renamed over the final name, and the
// directory is fsynced so the rename itself survives a crash. A
// failure at any point leaves the previous file for the generation (if
// any) untouched.
//
//garlint:allow ctxpass -- deliberately synchronous: the fsync/rename sequencing is the crash-safety contract and must run to completion; context.Background only feeds instantaneous test fault points
func (st *Store) Write(m Manifest, sections []Section) error {
	data, err := Encode(m, sections)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			discardTemp(tmp)
		}
	}()

	// The write fault point may truncate or corrupt the buffer; what it
	// returns is what reaches the disk, and its error is the write's.
	buf, ferr := st.inj.FireData(faults.FSWrite, data)
	if len(buf) > 0 {
		if _, werr := tmp.Write(buf); werr != nil {
			return fmt.Errorf("checkpoint: writing %s: %w", filepath.Base(tmp.Name()), werr)
		}
	}
	if ferr != nil {
		return fmt.Errorf("checkpoint: writing %s: %w", filepath.Base(tmp.Name()), ferr)
	}
	if err := st.inj.Fire(context.Background(), faults.FSSync); err != nil {
		return fmt.Errorf("checkpoint: syncing %s: %w", filepath.Base(tmp.Name()), err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing %s: %w", filepath.Base(tmp.Name()), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", filepath.Base(tmp.Name()), err)
	}
	if err := st.inj.Fire(context.Background(), faults.FSRename); err != nil {
		return fmt.Errorf("checkpoint: renaming into place: %w", err)
	}
	final := st.Path(m.Generation)
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("checkpoint: renaming into place: %w", err)
	}
	tmp = nil // renamed away; nothing to clean up
	syncDir(st.dir)
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

// Entry is one checkpoint file found in the state directory. Presence
// in a listing says nothing about validity; use ReadGeneration or
// Recover to prove a file trustworthy.
type Entry struct {
	Generation uint64
	Path       string
	Size       int64
	ModTime    time.Time
}

// List returns every checkpoint file in the directory, newest
// generation first. Temp files and foreign names are ignored.
func (st *Store) List() ([]Entry, error) {
	des, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: listing state directory: %w", err)
	}
	var out []Entry
	for _, de := range des {
		match := fileRE.FindStringSubmatch(de.Name())
		if match == nil || de.IsDir() {
			continue
		}
		gen, err := strconv.ParseUint(match[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Generation: gen, Path: filepath.Join(st.dir, de.Name())}
		if info, err := de.Info(); err == nil {
			e.Size = info.Size()
			e.ModTime = info.ModTime()
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Generation > out[j].Generation })
	return out, nil
}

// ReadFile reads and fully validates one checkpoint file.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	ck, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, filepath.Base(path))
	}
	return ck, nil
}

// ReadGeneration reads and fully validates the file of one generation.
func (st *Store) ReadGeneration(gen uint64) (*Checkpoint, error) {
	ck, err := ReadFile(st.Path(gen))
	if err != nil {
		return nil, err
	}
	if ck.Manifest.Generation != gen {
		return nil, corrupt("file %s carries generation %d", filepath.Base(st.Path(gen)), ck.Manifest.Generation)
	}
	return ck, nil
}

// Skipped records one checkpoint Recover had to pass over and why.
type Skipped struct {
	Path       string
	Generation uint64
	Err        error
}

// Recover walks the directory newest-generation-first, fully validates
// each checkpoint and offers it to accept (nil accept accepts
// anything). The first checkpoint that both validates and is accepted
// wins; everything that fails — corrupt envelope, incompatible
// version, a semantic rejection from accept — is recorded in skipped
// and the walk falls back one generation. A nil *Checkpoint with a nil
// error means the directory holds nothing recoverable: the caller
// starts from a clean empty state.
func (st *Store) Recover(accept func(*Checkpoint) error) (*Checkpoint, []Skipped, error) {
	entries, err := st.List()
	if err != nil {
		return nil, nil, err
	}
	var skipped []Skipped
	for _, e := range entries {
		ck, err := ReadFile(e.Path)
		if err == nil && ck.Manifest.Generation != e.Generation {
			err = corrupt("file %s carries generation %d", filepath.Base(e.Path), ck.Manifest.Generation)
		}
		if err == nil && accept != nil {
			err = accept(ck)
		}
		if err != nil {
			skipped = append(skipped, Skipped{Path: e.Path, Generation: e.Generation, Err: err})
			continue
		}
		return ck, skipped, nil
	}
	return nil, skipped, nil
}

// Prune removes all but the newest keep generations and returns the
// removed paths. keep < 1 is treated as 1: pruning never deletes the
// newest checkpoint.
func (st *Store) Prune(keep int) ([]string, error) {
	if keep < 1 {
		keep = 1
	}
	entries, err := st.List()
	if err != nil {
		return nil, err
	}
	var removed []string
	var firstErr error
	for _, e := range entries[min(keep, len(entries)):] {
		if err := os.Remove(e.Path); err != nil {
			if firstErr == nil && !errors.Is(err, fs.ErrNotExist) {
				firstErr = fmt.Errorf("checkpoint: pruning: %w", err)
			}
			continue
		}
		removed = append(removed, e.Path)
	}
	return removed, firstErr
}

// CleanTemp removes temp files abandoned by interrupted writes and
// returns the removed paths. Run it at startup, before any new write
// can have a temp file legitimately in flight.
func (st *Store) CleanTemp() ([]string, error) {
	tmps, err := filepath.Glob(filepath.Join(st.dir, tmpPattern))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scanning temp files: %w", err)
	}
	var removed []string
	var firstErr error
	for _, p := range tmps {
		if err := os.Remove(p); err != nil {
			if firstErr == nil && !errors.Is(err, fs.ErrNotExist) {
				firstErr = fmt.Errorf("checkpoint: cleaning temp files: %w", err)
			}
			continue
		}
		removed = append(removed, p)
	}
	return removed, firstErr
}
