package feedback

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faults"
)

// TestFeedbackCompactFaults: a fault at any filesystem point of a
// compaction — short write, bit flip, sync error, rename error — fails
// Compact, leaves the segments and their replay as they were and no
// temp file behind, and the next Append acks. A bit flip lets the
// rewrite rename a damaged segment into place; reading it back must
// catch that before a single old segment is deleted.
func TestFeedbackCompactFaults(t *testing.T) {
	cases := []struct {
		name    string
		stage   faults.Stage
		plan    faults.Plan
		corrupt bool
	}{
		{"short-write", faults.FSWrite, faults.Plan{Kind: faults.KindShortWrite, Bytes: 30, Times: 1}, false},
		{"bit-flip", faults.FSWrite, faults.Plan{Kind: faults.KindBitFlip, Offset: 40, Times: 1}, true},
		{"sync-error", faults.FSSync, faults.Plan{Kind: faults.KindError, Times: 1}, false},
		{"rename-error", faults.FSRename, faults.Plan{Kind: faults.KindError, Times: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Config{MaxSegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			acked := appendN(t, l, 8)
			segs, err := listSegments(dir)
			if err != nil || len(segs) < 2 {
				t.Fatalf("want several segments to compact, have %d (%v)", len(segs), err)
			}

			inj := faults.NewInjector(1).Inject(tc.stage, tc.plan)
			l.SetFaultInjector(inj)
			_, _, err = l.Compact()
			if err == nil {
				t.Fatal("faulted compaction succeeded")
			}
			if tc.corrupt && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("read-back mismatch = %v, want ErrCorrupt", err)
			}
			if inj.Fired(tc.stage) != 1 {
				t.Fatalf("fault at %s fired %d times", tc.stage, inj.Fired(tc.stage))
			}
			l.SetFaultInjector(nil)

			got, err := l.Records()
			if err != nil || !reflect.DeepEqual(got, acked) {
				t.Fatalf("records after the failed compaction: %v (%v), want %v", seqs(got), err, seqs(acked))
			}
			if after, _ := listSegments(dir); !reflect.DeepEqual(after, segs) {
				t.Fatalf("segments after the failed compaction: %v, want %v", after, segs)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, tmpPattern)); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
			rec := mkRecord(99)
			if rec.Seq, err = l.Append(rec); err != nil || rec.Seq != 9 {
				t.Fatalf("append after the failed compaction: seq %d, %v", rec.Seq, err)
			}
			if got, _ := l.Records(); !reflect.DeepEqual(got, append(acked, rec)) {
				t.Fatalf("records after the append: %v", seqs(got))
			}
		})
	}
}
