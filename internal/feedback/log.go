package feedback

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
)

// segName is the on-disk name of one log segment. The zero-padded
// decimal makes lexical order equal numeric order, so a directory
// listing is already segment-sorted.
const segName = "seg-%020d.fwal"

// tmpPattern names the temp files of in-progress segment and
// compaction writes; the leading dot keeps them out of casual globs.
const tmpPattern = ".fwal-*.tmp"

var segRE = regexp.MustCompile(`^seg-(\d{20})\.fwal$`)

// Config tunes a Log. The zero value is usable.
type Config struct {
	// MaxSegmentBytes rotates the active segment before an append that
	// would push it past this size (default 1 MiB). Rotation bounds the
	// blast radius of a damaged segment and the cost of a Compact.
	MaxSegmentBytes int64
}

func (c Config) fill() Config {
	if c.MaxSegmentBytes <= 0 {
		c.MaxSegmentBytes = 1 << 20
	}
	return c
}

// Stats is a point-in-time summary of a log.
type Stats struct {
	// Segments and Bytes describe the on-disk tree.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Records is the number of replayable records; LastSeq the highest
	// sequence number ever acknowledged.
	Records int    `json:"records"`
	LastSeq uint64 `json:"last_seq"`
	// Appended and AppendFailures count this process's appends.
	Appended       uint64 `json:"appended"`
	AppendFailures uint64 `json:"append_failures,omitempty"`
	// CorruptSkipped counts records dropped at open for CRC or decode
	// damage; TornTruncated counts torn tails cut off the newest
	// segment; SealedSegments counts segments retired early because
	// their damage could not be safely truncated away.
	CorruptSkipped  int    `json:"corrupt_skipped,omitempty"`
	TornTruncated   int    `json:"torn_truncated,omitempty"`
	SealedSegments  int    `json:"sealed_segments,omitempty"`
	Rotations       uint64 `json:"rotations,omitempty"`
	Compactions     uint64 `json:"compactions,omitempty"`
	ReplayDuplicate int    `json:"replay_duplicates,omitempty"`
}

// Log is a durable append-only feedback log over one directory. It is
// safe for concurrent use; appends are serialized by an internal
// mutex, which is the WAL's write-ordering discipline (one frame hits
// the file at a time, sequence numbers are gapless-monotonic).
type Log struct {
	dir string
	cfg Config
	// inj, when set, fires at the filesystem fault points of every
	// append and rotation; see internal/faults. Test-harness hook.
	inj *faults.Injector

	mu         sync.Mutex
	f          *os.File // active segment; nil when sealed (next append rotates)
	activeID   uint64
	activeSize int64
	lastSeq    uint64
	closed     bool
	stats      Stats
}

// Open creates the directory if needed, sweeps leftover temp files,
// replays every segment, repairs the newest one (truncating a torn
// tail; sealing it when the damage is not a clean tail), and returns a
// log ready to append. Corrupt records are skipped and counted, never
// fatal: losing one feedback pair must not take the loop down.
func Open(dir string, cfg Config) (*Log, error) {
	if dir == "" {
		return nil, fmt.Errorf("feedback: empty log directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: opening log directory: %w", err)
	}
	l := &Log{dir: dir, cfg: cfg.fill()}
	l.cleanTemp()
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if err := l.recoverSegments(segs); err != nil {
		return nil, err
	}
	return l, nil
}

// SetFaultInjector installs a fault injector fired at the FSWrite,
// FSSync and FSRename points of subsequent appends, rotations and
// compactions.
// Pass nil to disable. Intended for the crash-consistency harness.
func (l *Log) SetFaultInjector(inj *faults.Injector) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inj = inj
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// segment pairs an ID with its path.
type segment struct {
	id   uint64
	path string
}

func segPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf(segName, id))
}

// listSegments returns the segment files of dir in ID order.
func listSegments(dir string) ([]segment, error) {
	files, err := durable.ListNumbered(dir, segRE)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("feedback: listing segments: %w", err)
	}
	var segs []segment
	for _, f := range files {
		segs = append(segs, segment{id: f.N, path: f.Path})
	}
	return segs, nil
}

// recoverSegments replays segs into the log's counters and decides
// where the next append goes. Only the newest segment is ever
// repaired: older segments were sealed by a rotation that implies
// their tail was acknowledged, so damage there is reported, not
// amputated.
func (l *Log) recoverSegments(segs []segment) error {
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("feedback: reading segment: %w", err)
		}
		res, serr := scanSegment(data)
		newest := i == len(segs)-1
		l.stats.Segments++
		l.stats.Bytes += int64(len(data))
		l.stats.CorruptSkipped += res.Corrupt
		for _, rec := range res.Records {
			if rec.Seq > l.lastSeq {
				l.lastSeq = rec.Seq
				l.stats.Records++
			} else {
				l.stats.ReplayDuplicate++
			}
		}
		if !newest {
			continue
		}
		l.activeID = seg.id
		if serr != nil || res.Lost || res.Corrupt > 0 {
			// The tail may hide acknowledged bytes we cannot re-delimit;
			// retire the segment untouched and append elsewhere.
			l.stats.SealedSegments++
			continue
		}
		if res.TornBytes > 0 {
			if terr := truncateSegment(seg.path, res.Good); terr != nil {
				// Cannot prove the torn tail gone: seal instead.
				l.stats.SealedSegments++
				continue
			}
			l.stats.Bytes -= res.TornBytes
			l.stats.TornTruncated++
		}
		f, oerr := os.OpenFile(seg.path, os.O_RDWR|os.O_APPEND, 0o644)
		if oerr != nil {
			return fmt.Errorf("feedback: reopening active segment: %w", oerr)
		}
		l.f = f
		l.activeSize = int64(len(data)) - res.TornBytes
	}
	l.stats.LastSeq = l.lastSeq
	return nil
}

// truncateSegment cuts a torn tail and makes the cut durable.
func truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// cleanTemp removes leftover temp files from interrupted rotations and
// compactions.
//
//garlint:allow errlost -- best-effort startup sweep of provably incomplete files: a temp name never matches a segment, so one that stays is harmless
func (l *Log) cleanTemp() {
	_, _ = durable.Sweep(l.dir, tmpPattern)
}

// Append assigns the next sequence number to rec, writes its frame to
// the active segment and fsyncs. The record is acknowledged — sequence
// returned, counters bumped — only after the fsync succeeds AND a
// read-back of the frame matches what was meant to be written, so an
// acknowledged record survives a crash and an injected bit flip alike.
// On failure the partial frame is truncated away (or the segment is
// sealed when even truncation fails) and the sequence number is not
// consumed.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	rec.Seq = l.lastSeq + 1
	if rec.TimeUnix == 0 {
		rec.TimeUnix = time.Now().Unix()
	}
	frame, err := appendRecord(nil, rec)
	if err != nil {
		return 0, err
	}
	if l.f != nil && l.activeSize+int64(len(frame)) > l.cfg.MaxSegmentBytes && l.activeSize > int64(len(magic)) {
		l.seal()
	}
	if l.f == nil {
		if err := l.openSegment(l.activeID + 1); err != nil {
			return 0, err
		}
	}
	prev := l.activeSize
	if err := l.writeFrame(frame, prev); err != nil {
		l.stats.AppendFailures++
		l.discardTail(prev)
		return 0, fmt.Errorf("feedback: appending record: %w", err)
	}
	l.lastSeq = rec.Seq
	l.activeSize = prev + int64(len(frame))
	l.stats.Appended++
	l.stats.Records++
	l.stats.LastSeq = rec.Seq
	l.stats.Bytes += int64(len(frame))
	return rec.Seq, nil
}

// writeFrame pushes one frame through the filesystem fault points,
// fsyncs, and read-back-verifies the bytes that landed at offset off.
//
//garlint:allow ctxpass -- deliberately synchronous: the write/fsync sequencing is the ack contract and must run to completion; context.Background only feeds instantaneous test fault points
func (l *Log) writeFrame(frame []byte, off int64) error {
	buf, ferr := l.inj.FireData(faults.FSWrite, frame)
	if len(buf) > 0 {
		if _, werr := l.f.Write(buf); werr != nil {
			return werr
		}
	}
	if ferr != nil {
		return ferr
	}
	if err := l.inj.Fire(context.Background(), faults.FSSync); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	got := make([]byte, len(frame))
	if _, err := l.f.ReadAt(got, off); err != nil {
		return fmt.Errorf("verifying written frame: %w", err)
	}
	if !bytes.Equal(got, frame) {
		return corrupt("written frame does not match (media corruption before ack)")
	}
	return nil
}

// discardTail rolls the active segment back to size prev after a
// failed append. If the truncate fails the garbage tail cannot be
// proven gone, so the segment is sealed: recovery classifies the tail
// as torn/corrupt and the next append starts a fresh segment.
func (l *Log) discardTail(prev int64) {
	if l.f == nil {
		return
	}
	if err := l.f.Truncate(prev); err != nil {
		l.seal()
		l.stats.SealedSegments++
		return
	}
	l.activeSize = prev
}

// seal closes the active segment; the next append rotates.
//
//garlint:allow errlost -- the segment's acknowledged bytes are already fsynced; a close error has nothing to add
func (l *Log) seal() {
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

// openSegment creates segment id through the durable atomic write (a
// segment file is either absent or has a complete header) and opens it
// for appends.
func (l *Log) openSegment(id uint64) error {
	final := segPath(l.dir, id)
	if err := durable.WriteFile(final, tmpPattern, []byte(magic), l.inj); err != nil {
		return fmt.Errorf("feedback: creating segment: %w", err)
	}
	f, err := os.OpenFile(final, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: opening segment: %w", err)
	}
	// Read back the header: a bit flip here would silently void every
	// record later appended to the segment. The file holds nothing
	// acknowledged yet, so on mismatch it is simply discarded.
	hdr := make([]byte, len(magic))
	if _, rerr := f.ReadAt(hdr, 0); rerr != nil || string(hdr) != magic {
		return errors.Join(corrupt("segment header does not match after write"), f.Close(), os.Remove(final))
	}
	l.f = f
	l.activeID = id
	l.activeSize = int64(len(magic))
	l.stats.Segments++
	l.stats.Bytes += int64(len(magic))
	l.stats.Rotations++
	return nil
}

// Records replays the whole log from disk: every decodable record in
// segment order, strictly increasing sequence numbers (duplicates from
// an interrupted compaction deduplicate away). Corrupt records are
// skipped, as at Open.
func (l *Log) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	recs, _, err := replayDir(l.dir)
	return recs, err
}

// replayDir reads every segment of dir and returns the deduplicated
// record stream plus the number of skipped corrupt frames.
func replayDir(dir string) ([]Record, int, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, 0, err
	}
	var out []Record
	var last uint64
	skipped := 0
	for _, seg := range segs {
		data, rerr := os.ReadFile(seg.path)
		if rerr != nil {
			return nil, skipped, fmt.Errorf("feedback: reading segment: %w", rerr)
		}
		res, serr := scanSegment(data)
		if serr != nil {
			skipped++
			continue
		}
		skipped += res.Corrupt
		for _, rec := range res.Records {
			if rec.Seq > last {
				out = append(out, rec)
				last = rec.Seq
			}
		}
	}
	return out, skipped, nil
}

// LastSeq returns the highest acknowledged sequence number.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Stats returns a copy of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Compact rewrites every replayable record into one fresh segment and
// deletes the older ones — but only after reading the new segment back
// and finding exactly the bytes meant for it; otherwise the new
// segment is removed, the old ones stay, and the error wraps
// ErrCorrupt. A crash anywhere in between is safe: before the rename
// nothing changed; after it, replay deduplicates the old segments'
// records away and a re-run finishes the deletes.
//
//garlint:allow lockhold -- l.mu is the WAL's single-writer lock: every mutation (append, rotation, compaction) does file I/O under it by design, and no serving path ever holds it
func (l *Log) Compact() (kept int, removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	recs, _, err := replayDir(l.dir)
	if err != nil {
		return 0, 0, err
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return 0, 0, err
	}
	newID := l.activeID + 1
	size, err := l.writeCompacted(newID, recs)
	if err != nil {
		return 0, 0, err
	}
	l.seal()
	for _, seg := range segs {
		if seg.id >= newID {
			continue
		}
		if rerr := os.Remove(seg.path); rerr != nil {
			// The duplicate prefix is harmless (replay dedups); report it.
			err = fmt.Errorf("feedback: removing compacted segment: %w", rerr)
			continue
		}
		removed++
	}
	f, oerr := os.OpenFile(segPath(l.dir, newID), os.O_RDWR|os.O_APPEND, 0o644)
	if oerr != nil {
		return len(recs), removed, fmt.Errorf("feedback: reopening compacted segment: %w", oerr)
	}
	l.f = f
	l.activeID = newID
	l.activeSize = size
	l.stats.Compactions++
	l.stats.Segments = 1 + (len(segs) - removed)
	l.stats.Bytes = size
	l.stats.Records = len(recs)
	return len(recs), removed, err
}

// writeCompacted writes recs as segment id through the durable atomic
// write, then reads the segment back and checks it holds exactly the
// bytes written. On a mismatch it removes the segment.
func (l *Log) writeCompacted(id uint64, recs []Record) (int64, error) {
	buf := []byte(magic)
	for _, rec := range recs {
		var err error
		if buf, err = appendRecord(buf, rec); err != nil {
			return 0, err
		}
	}
	path := segPath(l.dir, id)
	if err := durable.WriteFile(path, tmpPattern, buf, l.inj); err != nil {
		return 0, fmt.Errorf("feedback: writing compacted segment: %w", err)
	}
	got, err := os.ReadFile(path)
	if err == nil && !bytes.Equal(got, buf) {
		err = corrupt("compacted segment does not read back as written")
	}
	if err != nil {
		return 0, errors.Join(fmt.Errorf("feedback: verifying compacted segment: %w", err), os.Remove(path))
	}
	return int64(len(buf)), nil
}

// Close seals the log; further operations return ErrClosed.
//
//garlint:allow lockhold -- l.mu is the WAL's single-writer lock; closing the active segment under it is the point
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	return err
}

// SegmentReport is Inspect's read-only verdict on one segment file.
type SegmentReport struct {
	Path      string `json:"path"`
	Size      int64  `json:"size"`
	Records   int    `json:"records"`
	FirstSeq  uint64 `json:"first_seq,omitempty"`
	LastSeq   uint64 `json:"last_seq,omitempty"`
	Corrupt   int    `json:"corrupt,omitempty"`
	TornBytes int64  `json:"torn_bytes,omitempty"`
	// Lost reports an unrecoverable frame boundary mid-segment.
	Lost bool `json:"lost_tail,omitempty"`
	// Err is a header-level failure; the segment yields no records.
	Err string `json:"error,omitempty"`
}

// Inspect scans every segment of dir without opening (or repairing)
// the log — the read-only path of `gar feedback list|verify`.
func Inspect(dir string) ([]SegmentReport, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	reports := make([]SegmentReport, 0, len(segs))
	for _, seg := range segs {
		rep := SegmentReport{Path: seg.path}
		data, rerr := os.ReadFile(seg.path)
		if rerr != nil {
			rep.Err = rerr.Error()
			reports = append(reports, rep)
			continue
		}
		rep.Size = int64(len(data))
		res, serr := scanSegment(data)
		if serr != nil {
			rep.Err = serr.Error()
			reports = append(reports, rep)
			continue
		}
		rep.Records = len(res.Records)
		if len(res.Records) > 0 {
			rep.FirstSeq = res.Records[0].Seq
			rep.LastSeq = res.Records[len(res.Records)-1].Seq
		}
		rep.Corrupt = res.Corrupt
		rep.TornBytes = res.TornBytes
		rep.Lost = res.Lost
		reports = append(reports, rep)
	}
	return reports, nil
}
