package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"repro/internal/faults"
)

const testPattern = ".test-*.tmp"

// temps lists the temp files left in dir.
func temps(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, testPattern))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestDurableWriteFileFaults: a fault at any point of an atomic write
// leaves the previous file as it was — or no file, when there was
// none — and no temp file. A bit flip is the one fault the write cannot
// see: the flipped bytes land whole, for a checksum to catch on read.
func TestDurableWriteFileFaults(t *testing.T) {
	old := []byte("the previous generation")
	data := []byte("the next generation, somewhat longer")
	cases := []struct {
		name  string
		stage faults.Stage
		plan  faults.Plan
	}{
		{"short-write", faults.FSWrite, faults.Plan{Kind: faults.KindShortWrite, Bytes: 5}},
		{"write-error", faults.FSWrite, faults.Plan{Kind: faults.KindError}},
		{"sync-error", faults.FSSync, faults.Plan{Kind: faults.KindError}},
		{"rename-error", faults.FSRename, faults.Plan{Kind: faults.KindError}},
	}
	for _, tc := range cases {
		for _, previous := range []bool{true, false} {
			name := tc.name + "/fresh"
			if previous {
				name = tc.name + "/replace"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "state")
				if previous {
					if err := WriteFile(path, testPattern, old, nil); err != nil {
						t.Fatal(err)
					}
				}
				inj := faults.NewInjector(1).Inject(tc.stage, tc.plan)
				if err := WriteFile(path, testPattern, data, inj); err == nil {
					t.Fatal("faulted write succeeded")
				}
				if inj.Fired(tc.stage) != 1 {
					t.Fatalf("%s fired %d times", tc.stage, inj.Fired(tc.stage))
				}
				got, err := os.ReadFile(path)
				switch {
				case previous && (err != nil || !bytes.Equal(got, old)):
					t.Fatalf("previous file is now %q (%v)", got, err)
				case !previous && !errors.Is(err, os.ErrNotExist):
					t.Fatalf("a failed first write left a file: %q (%v)", got, err)
				}
				if tmps := temps(t, dir); len(tmps) != 0 {
					t.Fatalf("temp files left behind: %v", tmps)
				}
			})
		}
	}

	t.Run("bit-flip", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "state")
		inj := faults.NewInjector(1).Inject(faults.FSWrite, faults.Plan{Kind: faults.KindBitFlip, Offset: 9})
		if err := WriteFile(path, testPattern, data, inj); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || len(got) != len(data) || bytes.Equal(got, data) {
			t.Fatalf("bit-flipped write landed as %q (%v)", got, err)
		}
		if tmps := temps(t, dir); len(tmps) != 0 {
			t.Fatalf("temp files left behind: %v", tmps)
		}
	})
}

// TestDurableFileStreams: a streamed file holds its header and every
// write, in order, only once committed; an aborted one leaves nothing.
func TestDurableFileStreams(t *testing.T) {
	dir := t.TempDir()
	f, err := Create(dir, testPattern, "HEAD", nil)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(f.Name()) != dir {
		t.Fatalf("temp file %s is not in %s", f.Name(), dir)
	}
	for _, p := range []string{"one", "two", string(make([]byte, 70_000))} {
		if n, err := f.Write([]byte(p)); err != nil || n != len(p) {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	final := filepath.Join(dir, "run")
	if _, err := os.Stat(final); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file visible before Commit: %v", err)
	}
	if err := f.Commit(final); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(final)
	if err != nil || !bytes.Equal(got, append([]byte("HEADonetwo"), make([]byte, 70_000)...)) {
		t.Fatalf("committed %d bytes (%v)", len(got), err)
	}
	f.Abort() // a no-op after Commit
	if _, err := os.Stat(final); err != nil {
		t.Fatalf("Abort after Commit removed the file: %v", err)
	}
	if err := f.Commit(final); err == nil {
		t.Fatal("a second Commit succeeded")
	}

	g, err := Create(dir, testPattern, "HEAD", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	g.Abort()
	g.Abort()
	if tmps := temps(t, dir); len(tmps) != 0 {
		t.Fatalf("Abort left %v", tmps)
	}
	if err := g.Commit(filepath.Join(dir, "doomed")); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}

	missing := filepath.Join(dir, "missing")
	if _, err := Create(missing, testPattern, "", nil); err == nil {
		t.Fatal("Create in a missing directory succeeded")
	}
	if err := WriteFile(filepath.Join(missing, "state"), testPattern, []byte("x"), nil); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	h, err := Create(dir, testPattern, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Commit(filepath.Join(missing, "state")); err == nil {
		t.Fatal("Commit into a missing directory succeeded")
	}
	if tmps := temps(t, dir); len(tmps) != 0 {
		t.Fatalf("failed Commit left %v", tmps)
	}
}

// TestDurableFileShortWrite: a short write reports the bytes that
// reached the file and the fault's error.
func TestDurableFileShortWrite(t *testing.T) {
	inj := faults.NewInjector(1).Inject(faults.FSWrite, faults.Plan{Kind: faults.KindShortWrite, Bytes: 3})
	f, err := Create(t.TempDir(), testPattern, "", inj)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Abort()
	if n, err := f.Write([]byte("payload")); n != 3 || err == nil {
		t.Fatalf("short write = %d, %v; want 3 and an error", n, err)
	}
}

func frames(payloads ...string) []byte {
	var out []byte
	for _, p := range payloads {
		out = AppendFrame(out, []byte(p))
	}
	return out
}

// readFrames reads every frame of data and returns the payloads and
// the error that ended the stream.
func readFrames(data []byte, max uint32, inj *faults.Injector) ([]string, error) {
	fr := NewFrameReader(bytes.NewReader(data), max, inj)
	var out []string
	for {
		p, err := fr.Next()
		if err != nil {
			return out, err
		}
		out = append(out, string(p))
	}
}

// TestDurableFrameReader: the reader tells apart a clean end, a torn
// header, a torn payload, an impossible length and a checksum
// mismatch, and a checksum mismatch leaves the next frame readable.
func TestDurableFrameReader(t *testing.T) {
	data := frames("alpha", "", "gamma")
	if got, err := readFrames(data, 64, nil); err != io.EOF || !slices.Equal(got, []string{"alpha", "", "gamma"}) {
		t.Fatalf("clean stream: %q, %v", got, err)
	}
	// The layout, written out by hand.
	want := binary.BigEndian.AppendUint32(nil, 5)
	want = binary.BigEndian.AppendUint64(want, Checksum([]byte("alpha")))
	if !bytes.HasPrefix(data, append(want, "alpha"...)) {
		t.Fatalf("frame layout: %x", data[:FrameHeader+5])
	}

	last := len(data) - (FrameHeader + len("gamma"))
	for cut := last + 1; cut < len(data); cut++ {
		got, err := readFrames(data[:cut], 64, nil)
		wantErr := errTornPayload
		if cut < last+FrameHeader {
			wantErr = errTornHeader
		}
		if !errors.Is(err, wantErr) || !errors.Is(err, ErrTorn) || !slices.Equal(got, []string{"alpha", ""}) {
			t.Fatalf("cut at %d: %q, %v; want %v", cut, got, err, wantErr)
		}
	}

	if got, err := readFrames(data, 4, nil); !errors.Is(err, ErrLength) || len(got) != 0 {
		t.Fatalf("limit 4: %q, %v; want ErrLength", got, err)
	}

	flipped := slices.Clone(data)
	flipped[FrameHeader+1] ^= 0x04
	fr := NewFrameReader(bytes.NewReader(flipped), 64, nil)
	if _, err := fr.Next(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped payload: %v, want ErrChecksum", err)
	}
	if fr.Offset() != FrameHeader+5 {
		t.Fatalf("offset after the corrupt frame = %d", fr.Offset())
	}
	if p, err := fr.Next(); err != nil || len(p) != 0 {
		t.Fatalf("frame after the corrupt one: %q, %v", p, err)
	}

	// The FSRead point judges what the checksum sees.
	inj := faults.NewInjector(1).Inject(faults.FSRead, faults.Plan{Kind: faults.KindBitFlip, After: 2})
	if got, err := readFrames(data, 64, inj); !errors.Is(err, ErrChecksum) || len(got) != 2 {
		t.Fatalf("read fault on the third frame: %q, %v", got, err)
	}
	boom := errors.New("eio")
	if _, err := readFrames(data, 64, faults.NewInjector(1).Fail(faults.FSRead, boom)); err != boom {
		t.Fatalf("injected read error = %v, want it returned as is", err)
	}
}

// TestDurableBlock: a block round-trips with the bytes after it, and
// ParseBlock rejects short input, a wrong magic, a length beyond the
// limit or the data, and a checksum mismatch.
func TestDurableBlock(t *testing.T) {
	block := AppendBlock(nil, "MAGIC-01", []byte("payload"))
	want := append([]byte("MAGIC-01"), binary.BigEndian.AppendUint64(nil, 7)...)
	want = binary.BigEndian.AppendUint64(append(want, "payload"...), Checksum([]byte("payload")))
	if !bytes.Equal(block, want) {
		t.Fatalf("block layout %x, want %x", block, want)
	}
	payload, rest, err := ParseBlock(append(slices.Clone(block), "tail"...), 64, "MAGIC-00", "MAGIC-01")
	if err != nil || string(payload) != "payload" || string(rest) != "tail" {
		t.Fatalf("ParseBlock = %q, %q, %v", payload, rest, err)
	}

	flipped := slices.Clone(block)
	flipped[len("MAGIC-01")+8+2] ^= 0x01
	long := slices.Clone(block)
	binary.BigEndian.PutUint64(long[8:16], 8)
	cases := []struct {
		name string
		data []byte
		max  uint64
		want error
	}{
		{"empty", nil, 64, ErrTorn},
		{"short", block[:len("MAGIC-01")+15], 64, ErrTorn},
		{"magic", append([]byte("MAGIC-99"), block[8:]...), 64, ErrMagic},
		{"limit", block, 6, ErrLength},
		{"length-beyond-data", long, 64, ErrTorn},
		{"truncated", block[:len(block)-1], 64, ErrTorn},
		{"checksum", flipped, 64, ErrChecksum},
	}
	for _, tc := range cases {
		if _, _, err := ParseBlock(tc.data, tc.max, "MAGIC-01"); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDurableSweep: Sweep removes exactly the names its pattern
// matches, and an empty or missing directory is nothing to sweep.
func TestDurableSweep(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".test-1.tmp", ".test-22.tmp", "test-3.tmp", ".test-4.tmpx", "gen-1.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := Sweep(dir, testPattern)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(removed)
	if want := []string{filepath.Join(dir, ".test-1.tmp"), filepath.Join(dir, ".test-22.tmp")}; !slices.Equal(removed, want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	left, err := os.ReadDir(dir)
	if err != nil || len(left) != 3 {
		t.Fatalf("%d files left (%v), want 3", len(left), err)
	}
	for _, d := range []string{"", filepath.Join(dir, "missing")} {
		if removed, err := Sweep(d, testPattern); err != nil || len(removed) != 0 {
			t.Fatalf("Sweep(%q) = %v, %v", d, removed, err)
		}
	}
}

// TestDurableListNumbered: ListNumbered returns the matching files in
// counter order and skips names that do not match, directories with
// matching names and counters that overflow uint64; a missing directory
// is fs.ErrNotExist.
func TestDurableListNumbered(t *testing.T) {
	re := regexp.MustCompile(`^seq-(\d{20})\.dat$`)
	dir := t.TempDir()
	for _, name := range []string{
		"seq-00000000000000000010.dat",
		"seq-00000000000000000002.dat",
		"seq-18446744073709551615.dat", // max uint64
		"seq-99999999999999999999.dat", // overflows uint64
		"seq-2.dat",                    // not 20 digits
		"seq-00000000000000000003.dat.tmp",
		"other-00000000000000000004.dat",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "seq-00000000000000000005.dat"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := ListNumbered(dir, re)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, f := range files {
		got = append(got, f.N)
		if want := filepath.Join(dir, f.Entry.Name()); f.Path != want || f.Entry.IsDir() {
			t.Errorf("file %d: path %q entry %q dir=%v", f.N, f.Path, f.Entry.Name(), f.Entry.IsDir())
		}
	}
	if want := []uint64{2, 10, 18446744073709551615}; !slices.Equal(got, want) {
		t.Fatalf("counters %v, want %v", got, want)
	}
	if _, err := ListNumbered(filepath.Join(dir, "missing"), re); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing directory: %v, want fs.ErrNotExist", err)
	}
}

// FuzzFrame: the frame reader fails only with its own errors, never
// panics, and every frame it accepts re-encodes to the bytes it came
// from.
func FuzzFrame(f *testing.F) {
	data := frames("alpha", "", "gamma")
	f.Add(data)
	f.Add(data[:len(data)-2])
	f.Add(data[:FrameHeader-1])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), 1<<10, nil)
		for {
			start := fr.Offset()
			p, err := fr.Next()
			if errors.Is(err, ErrChecksum) {
				continue
			}
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrLength) {
					t.Fatalf("unexpected error %v", err)
				}
				return
			}
			if !bytes.Equal(AppendFrame(nil, p), data[start:fr.Offset()]) {
				t.Fatalf("frame at %d does not re-encode", start)
			}
		}
	})
}

// FuzzBlock: ParseBlock fails only with its own errors, never panics,
// and a block it accepts re-encodes to the bytes it came from.
func FuzzBlock(f *testing.F) {
	block := AppendBlock(nil, "MAGIC-01", []byte("payload"))
	f.Add(block)
	f.Add(block[:len(block)-1])
	f.Add(append(slices.Clone(block), "tail"...))
	f.Add([]byte("MAGIC-01\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, rest, err := ParseBlock(data, 1<<10, "MAGIC-01")
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrMagic) && !errors.Is(err, ErrLength) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		if !bytes.Equal(append(AppendBlock(nil, "MAGIC-01", payload), rest...), data) {
			t.Fatal("accepted block does not re-encode")
		}
	})
}
