package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

func writeGen(t *testing.T, st *Store, gen uint64, payload string) {
	t.Helper()
	m := Manifest{Generation: gen, Database: "employee", CreatedUnix: int64(1_700_000_000 + gen)}
	err := st.Write(m, []Section{{Name: "pool", Data: []byte(payload)}})
	if err != nil {
		t.Fatalf("Write gen %d: %v", gen, err)
	}
}

func TestStoreWriteListRead(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, gen := range []uint64{3, 1, 7} {
		writeGen(t, st, gen, fmt.Sprintf("pool-%d", gen))
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Generation != 7 || entries[1].Generation != 3 || entries[2].Generation != 1 {
		t.Fatalf("List order wrong: %+v", entries)
	}
	for _, e := range entries {
		if e.Size <= 0 {
			t.Fatalf("entry %d has no size", e.Generation)
		}
	}
	ck, err := st.ReadGeneration(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(ck.Section("pool")); got != "pool-3" {
		t.Fatalf("gen 3 pool = %q", got)
	}
	// Rewriting a generation replaces it atomically.
	writeGen(t, st, 3, "pool-3-v2")
	ck, err = st.ReadGeneration(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(ck.Section("pool")); got != "pool-3-v2" {
		t.Fatalf("rewritten gen 3 pool = %q", got)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestStoreListIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st, 5, "pool")
	for _, name := range []string{"notes.txt", ".ckpt-123.tmp", "gen-5.ckpt", "gen-x.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Generation != 5 {
		t.Fatalf("List = %+v, want only gen 5", entries)
	}
}

func TestRecoverFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st, 1, "oldest")
	writeGen(t, st, 2, "good")
	writeGen(t, st, 3, "torn")
	writeGen(t, st, 4, "flipped")

	// Tear gen 3 (truncate) and flip a payload bit of gen 4.
	tear(t, st.Path(3))
	flip(t, st.Path(4), -1)

	ck, skipped, err := st.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Manifest.Generation != 2 {
		t.Fatalf("recovered %+v, want generation 2", ck)
	}
	if string(ck.Section("pool")) != "good" {
		t.Fatalf("recovered pool = %q", ck.Section("pool"))
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped %d files, want 2: %+v", len(skipped), skipped)
	}
	for _, s := range skipped {
		if !errors.Is(s.Err, ErrCorrupt) {
			t.Fatalf("skip reason untyped: %v", s.Err)
		}
	}
}

func TestRecoverAcceptCallbackFallsBack(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st, 1, "old-schema")
	writeGen(t, st, 2, "new-schema")
	semantic := errors.New("wrong database")
	ck, skipped, err := st.Recover(func(c *Checkpoint) error {
		if string(c.Section("pool")) == "new-schema" {
			return semantic
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Manifest.Generation != 1 {
		t.Fatalf("recovered %+v, want generation 1", ck)
	}
	if len(skipped) != 1 || !errors.Is(skipped[0].Err, semantic) {
		t.Fatalf("skipped = %+v", skipped)
	}
}

func TestRecoverEmptyAndAllCorrupt(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ck, skipped, err := st.Recover(nil)
	if err != nil || ck != nil || len(skipped) != 0 {
		t.Fatalf("empty dir: ck=%v skipped=%v err=%v", ck, skipped, err)
	}
	writeGen(t, st, 1, "a")
	writeGen(t, st, 2, "b")
	tear(t, st.Path(1))
	tear(t, st.Path(2))
	ck, skipped, err = st.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck != nil {
		t.Fatalf("recovered a torn checkpoint: %+v", ck)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %+v", skipped)
	}
}

// TestRecoverRejectsRenamedGeneration catches a file whose name lies
// about the generation inside it.
func TestRecoverRejectsRenamedGeneration(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st, 1, "honest")
	writeGen(t, st, 2, "renamed")
	if err := os.Rename(st.Path(2), st.Path(9)); err != nil {
		t.Fatal(err)
	}
	ck, skipped, err := st.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Manifest.Generation != 1 {
		t.Fatalf("recovered %+v, want honest generation 1", ck)
	}
	if len(skipped) != 1 || !errors.Is(skipped[0].Err, ErrCorrupt) {
		t.Fatalf("skipped = %+v", skipped)
	}
	if _, err := st.ReadGeneration(9); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadGeneration accepted the lying file: %v", err)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 5; gen++ {
		writeGen(t, st, gen, "p")
	}
	removed, err := st.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 {
		t.Fatalf("removed %v, want 3 paths", removed)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Generation != 5 || entries[1].Generation != 4 {
		t.Fatalf("after prune: %+v", entries)
	}
	// keep < 1 still keeps the newest; pruning an already-short dir is a no-op.
	if removed, err := st.Prune(0); err != nil || len(removed) != 1 {
		t.Fatalf("Prune(0) removed %v, err %v", removed, err)
	}
	entries, _ = st.List()
	if len(entries) != 1 || entries[0].Generation != 5 {
		t.Fatalf("Prune(0) must keep the newest: %+v", entries)
	}
	if removed, err := st.Prune(10); err != nil || len(removed) != 0 {
		t.Fatalf("over-long keep pruned %v, err %v", removed, err)
	}
}

func TestCleanTemp(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st, 1, "keep")
	for _, name := range []string{".ckpt-111.tmp", ".ckpt-abandoned.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := st.CleanTemp()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want both temp files", removed)
	}
	if _, err := st.ReadGeneration(1); err != nil {
		t.Fatalf("CleanTemp damaged a real checkpoint: %v", err)
	}
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if strings.HasPrefix(de.Name(), ".ckpt-") {
			t.Fatalf("temp file survived: %s", de.Name())
		}
	}
}

// TestWriteFaultMatrix runs the write path under every filesystem
// fault kind and proves the invariant: a failed or corrupted write
// never damages the previous good checkpoint, and recovery afterwards
// lands on a fully-valid generation without panicking.
func TestWriteFaultMatrix(t *testing.T) {
	matrix := []struct {
		name       string
		plan       faults.Plan
		stage      faults.Stage
		wantErr    bool // Write must report failure
		newVisible bool // gen 2 may be visible and valid afterwards
	}{
		{"short write", faults.Plan{Kind: faults.KindShortWrite, Bytes: 10}, faults.FSWrite, true, false},
		{"zero-byte write", faults.Plan{Kind: faults.KindShortWrite, Bytes: 0}, faults.FSWrite, true, false},
		{"write error", faults.Plan{Kind: faults.KindError}, faults.FSWrite, true, false},
		{"fsync error", faults.Plan{Kind: faults.KindError}, faults.FSSync, true, false},
		{"rename error", faults.Plan{Kind: faults.KindError}, faults.FSRename, true, false},
		// A bit flip "succeeds": the file lands under the final name but
		// must be caught by the checksum at read time.
		{"bit flip", faults.Plan{Kind: faults.KindBitFlip, Offset: 97}, faults.FSWrite, false, false},
	}
	for _, tc := range matrix {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			writeGen(t, st, 1, "previous good state")

			inj := faults.NewInjector(1)
			inj.Inject(tc.stage, tc.plan)
			st.SetFaultInjector(inj)
			m := Manifest{Generation: 2, Database: "employee"}
			err = st.Write(m, []Section{{Name: "pool", Data: []byte("next state")}})
			st.SetFaultInjector(nil)
			if tc.wantErr && err == nil {
				t.Fatal("faulted write reported success")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("silent-corruption write must not error: %v", err)
			}

			ck, skipped, rerr := st.Recover(nil)
			if rerr != nil {
				t.Fatalf("Recover: %v", rerr)
			}
			if ck == nil {
				t.Fatalf("previous good generation lost (skipped %+v)", skipped)
			}
			if ck.Manifest.Generation == 2 && !tc.newVisible {
				t.Fatal("recovery trusted the faulted write")
			}
			if ck.Manifest.Generation == 1 && string(ck.Section("pool")) != "previous good state" {
				t.Fatalf("previous generation damaged: %q", ck.Section("pool"))
			}
			// A failed write must not leave temp litter behind (the bit-flip
			// row renames successfully, so nothing to clean there either).
			if tmps, _ := filepath.Glob(filepath.Join(st.Dir(), ".ckpt-*.tmp")); len(tmps) != 0 {
				t.Fatalf("temp litter after faulted write: %v", tmps)
			}
		})
	}
}

// TestWriteFaultRecoverNeverPanics sweeps bit flips across many
// offsets; whatever lands on disk, recovery must return, not panic.
func TestWriteFaultRecoverNeverPanics(t *testing.T) {
	for off := 0; off < 400; off += 7 {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.NewInjector(int64(off))
		inj.Inject(faults.FSWrite, faults.Plan{Kind: faults.KindBitFlip, Offset: off})
		st.SetFaultInjector(inj)
		m := Manifest{Generation: 1, Database: "employee"}
		if err := st.Write(m, []Section{{Name: "pool", Data: []byte("state bytes to corrupt")}}); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		ck, _, err := st.Recover(nil)
		if err != nil {
			t.Fatalf("offset %d: Recover errored: %v", off, err)
		}
		if ck != nil && string(ck.Section("pool")) != "state bytes to corrupt" {
			t.Fatalf("offset %d: silently wrong pool %q", off, ck.Section("pool"))
		}
	}
}

// tear truncates a file to half its length, as a crash mid-write would.
func tear(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// flip XORs one bit of the file; -1 targets the last byte (payload).
func flip(t *testing.T, path string, at int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if at < 0 {
		at = len(data) + at
	}
	data[at] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSkipsFormat1: a checkpoint the previous layout version
// wrote is intact but not loadable by this build — incompatible, not
// corrupt, whatever its sections hold — so recovery passes over it to
// the newest current-format generation, and over everything to a clean
// state when nothing else exists.
func TestRecoverSkipsFormat1(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, st, 1, "current")
	old, err := encodeFormat(Manifest{Generation: 2, Database: "employee"}, []Section{{Name: "pool", Data: []byte("old")}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(2), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(st.Path(2)); !errors.Is(err, ErrIncompatible) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("format-1 file: err = %v, want ErrIncompatible only", err)
	}

	ck, skipped, err := st.Recover(nil)
	if err != nil || ck == nil {
		t.Fatalf("recover: ck=%v err=%v", ck, err)
	}
	if ck.Manifest.Generation != 1 || string(ck.Section("pool")) != "current" {
		t.Fatalf("recovered generation %d, want the format-2 generation 1", ck.Manifest.Generation)
	}
	if len(skipped) != 1 || skipped[0].Path != st.Path(2) || !errors.Is(skipped[0].Err, ErrIncompatible) {
		t.Fatalf("skipped = %v, want generation 2 as incompatible", skipped)
	}

	if err := os.Remove(st.Path(1)); err != nil {
		t.Fatal(err)
	}
	ck, skipped, err = st.Recover(nil)
	if err != nil || ck != nil || len(skipped) != 1 {
		t.Fatalf("only a format-1 file: ck=%v skipped=%v err=%v, want a clean state", ck, skipped, err)
	}
}
