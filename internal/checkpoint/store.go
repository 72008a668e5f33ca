package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
)

// fileName is the on-disk name of one checkpoint generation. The
// zero-padded decimal makes lexical order equal numeric order, so a
// directory listing is already generation-sorted.
const fileName = "gen-%020d.ckpt"

// tmpPattern names the temp files of in-progress writes; the leading
// dot keeps them out of casual globs and List.
const tmpPattern = ".ckpt-*.tmp"

var fileRE = regexp.MustCompile(`^gen-(\d{20})\.ckpt$`)

// Store manages a directory of checkpoint files, one per generation.
// All writes go through the internal/durable atomic write, so the
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
// generation's name through the internal/durable atomic write: the
// envelope goes to a temp file in the same directory, is fsynced,
// renamed over the final name, and the directory is fsynced so the
// rename itself survives a crash. A failure at any point leaves the
// previous file for the generation (if any) untouched.
func (st *Store) Write(m Manifest, sections []Section) error {
	data, err := Encode(m, sections)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(st.Path(m.Generation), tmpPattern, data, st.inj); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
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
	files, err := durable.ListNumbered(st.dir, fileRE)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: listing state directory: %w", err)
	}
	var out []Entry
	for i := len(files) - 1; i >= 0; i-- {
		f := files[i]
		e := Entry{Generation: f.N, Path: f.Path}
		if info, err := f.Entry.Info(); err == nil {
			e.Size = info.Size()
			e.ModTime = info.ModTime()
		}
		out = append(out, e)
	}
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
	removed, err := durable.Sweep(st.dir, tmpPattern)
	if err != nil {
		return removed, fmt.Errorf("checkpoint: cleaning temp files: %w", err)
	}
	return removed, nil
}
