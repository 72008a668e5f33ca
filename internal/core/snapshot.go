package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/execguide"
	"repro/internal/generalize"
	"repro/internal/ltr"
	"repro/internal/parallel"
	"repro/internal/rerank"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/vector"
)

// The section names of a serving-snapshot checkpoint, in file order.
// internal/checkpoint carries them as opaque named payloads; the codecs
// here define what the bytes mean.
const (
	// SectionPool is the generalized candidate pool: every candidate's
	// SQL text and dialect expression.
	SectionPool = "pool"
	// SectionVecs holds the encoder embedding of each candidate's
	// dialect, aligned with SectionPool — the vectors the index serves,
	// persisted as one vector flat block so a warm start never
	// re-encodes the pool.
	SectionVecs = "vecs"
	// SectionModels is the trained Models stream in the Save envelope
	// (its own magic + length + CRC, nested inside the checkpoint's).
	SectionModels = "models"
	// SectionStats is the generalization statistics of the pool's
	// Prepare, so PrepStats survives a restart.
	SectionStats = "stats"
	// SectionTable is the pool's re-rank feature table as one
	// rerank.Table block, aligned with SectionPool, so a warm start
	// reads the table instead of building it. A checkpoint of a
	// pipeline that does not re-rank has none.
	SectionTable = "table"
)

// ErrNotReady is returned by ExportCheckpoint while no translatable
// snapshot is published: there is nothing worth persisting before the
// first completed Train/UseModels/Rebuild.
var ErrNotReady = errors.New("core: no translatable snapshot to checkpoint")

// poolEntry is the serialized form of one candidate: the SQL text
// (re-parsed and re-bound on restore) and the dialect expression
// (stored, not re-rendered, so a restored pool ranks with byte-identical
// inputs).
type poolEntry struct {
	SQL     string
	Dialect string
}

// snapshotCorrupt tags a semantic section failure with the checkpoint
// package's corruption sentinel, so Store.Recover falls back past it
// exactly as it falls back past a torn envelope.
func snapshotCorrupt(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", checkpoint.ErrCorrupt, fmt.Sprintf(format, args...))
}

// ExportCheckpoint renders the currently published serving snapshot as
// a checkpoint manifest plus sections: candidate pool, dialect vectors,
// trained models, generalization stats and, when the pipeline
// re-ranks, the re-rank feature table. The manifest's Generation is
// the snapshot's pool generation and Database names the bound database,
// so a restore onto the wrong system is refused. It fails with
// ErrNotReady while no trained snapshot is published.
func (s *System) ExportCheckpoint() (checkpoint.Manifest, []checkpoint.Section, error) {
	return s.exportState(s.state.Load())
}

// exportState is ExportCheckpoint of one published state.
func (s *System) exportState(st *state) (checkpoint.Manifest, []checkpoint.Section, error) {
	if !st.trained || st.pipeline == nil {
		return checkpoint.Manifest{}, nil, ErrNotReady
	}

	entries := make([]poolEntry, len(st.pool))
	for i, c := range st.pool {
		entries[i] = poolEntry{SQL: c.SQL.String(), Dialect: c.Dialect}
	}
	var poolBuf, statsBuf bytes.Buffer
	if err := gob.NewEncoder(&poolBuf).Encode(entries); err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding pool section: %w", err)
	}
	vecsBlock, err := vector.EncodeRows(st.pipeline.DialVecs)
	if err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding vecs section: %w", err)
	}
	if err := gob.NewEncoder(&statsBuf).Encode(st.prepStats); err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding stats section: %w", err)
	}
	models, err := (&Models{Encoder: st.encoder, Reranker: st.pipeline.Reranker}).encode()
	if err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding models section: %w", err)
	}

	manifest := checkpoint.Manifest{
		Generation:  st.gen,
		Database:    s.DB.Name,
		CreatedUnix: time.Now().Unix(),
	}
	sections := []checkpoint.Section{
		{Name: SectionPool, Data: poolBuf.Bytes()},
		{Name: SectionVecs, Data: vecsBlock},
		{Name: SectionModels, Data: models},
		{Name: SectionStats, Data: statsBuf.Bytes()},
	}
	if st.pipeline.Table != nil {
		sections = append(sections, checkpoint.Section{Name: SectionTable, Data: st.pipeline.Table.AppendBinary(nil)})
	}
	return manifest, sections, nil
}

// decodeSection gob-decodes one named section into out, containing any
// decoder panic (gob is not hardened against hostile input) and tagging
// every failure as corruption so recovery falls back a generation.
func decodeSection(ck *checkpoint.Checkpoint, name string, out any) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = snapshotCorrupt("section %q does not decode: %v", name, rec)
		}
	}()
	data := ck.Section(name)
	if data == nil {
		return snapshotCorrupt("section %q missing", name)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		return snapshotCorrupt("section %q does not decode: %v", name, err)
	}
	return nil
}

// decodeVecs decodes the dialect vectors: one flat block, whose
// malformations are corruption like any other section's.
func decodeVecs(ck *checkpoint.Checkpoint) ([]vector.Vec, error) {
	data := ck.Section(SectionVecs)
	if data == nil {
		return nil, snapshotCorrupt("section %q missing", SectionVecs)
	}
	vecs, err := vector.DecodeRows(data)
	if err != nil {
		return nil, snapshotCorrupt("section %q does not decode: %v", SectionVecs, err)
	}
	return vecs, nil
}

// RestoreCheckpoint rebuilds the complete serving snapshot from a
// decoded (and envelope-validated) checkpoint and publishes it
// atomically: candidate pool re-parsed and re-bound against this
// system's database, vector index rebuilt from the persisted dialect
// embeddings (no re-encoding), re-rank feature table decoded from its
// section (never rebuilt), models deployed. The steps run side by side
// on up to Options.Workers goroutines, and every worker count publishes
// the same snapshot. After it returns the system is Ready and
// translates without ever running Prepare or Train. The snapshot is
// built on a fork and published as Rebuild publishes (see adopt), with
// the live samples, content and exec guide, which a checkpoint does not
// store; a restore over a serving snapshot needs headroom only for the
// difference.
//
// A checkpoint for a different database, or one without a re-rank
// feature table restored by a system that re-ranks with the
// checkpoint's models, fails with checkpoint.ErrIncompatible;
// undecodable or internally inconsistent sections fail with
// checkpoint.ErrCorrupt; a snapshot the budget cannot hold fails with
// an error wrapping memgov.ErrBudgetExceeded. On any failure the system
// is left exactly as it was — the new state is published only after
// every section has validated.
func (s *System) RestoreCheckpoint(ck *checkpoint.Checkpoint) error {
	_, err := s.restoreCheckpoint(ck, nil)
	return err
}

// recovery is the durable origin of a state RecoverCheckpoint restored:
// the store it came from and the publication that made it current.
type recovery struct {
	store *checkpoint.Store
	pub   uint64
}

// RecoverCheckpoint walks the store's checkpoints newest-first and
// restores the first one that fully validates against this system,
// falling back generation-by-generation past anything torn, corrupt or
// incompatible (each recorded in skipped). A nil returned checkpoint
// with nil error means nothing recoverable exists and the system is
// unchanged but for its generation numbering: either way, every new
// generation numbers above the skipped files, so its checkpoints
// supersede them (see nextGen). The restored state is already durable
// in st, so a Checkpointer on st counts it as written: a tenant evicted
// without changing since its warm start is not checkpointed again.
func (s *System) RecoverCheckpoint(st *checkpoint.Store) (*checkpoint.Checkpoint, []checkpoint.Skipped, error) {
	var pub uint64
	ck, skipped, err := st.Recover(func(ck *checkpoint.Checkpoint) error {
		var rerr error
		pub, rerr = s.restoreCheckpoint(ck, nil)
		return rerr
	})
	if err == nil && ck != nil {
		s.recovered.Store(&recovery{store: st, pub: pub})
	}
	if len(skipped) > 0 {
		s.writeMu.Lock()
		for _, sk := range skipped {
			s.skippedGen = max(s.skippedGen, sk.Generation)
		}
		s.writeMu.Unlock()
	}
	return ck, skipped, err
}

// guideState is the part of a serving state a checkpoint does not
// store: the sample queries and the exec guide seeded from them.
type guideState struct {
	samples []*sqlast.Query
	guide   *execguide.Guide
}

// restoreCheckpoint is RestoreCheckpoint, also returning the number of
// the publication that made the restored state current. A non-nil prior
// replaces the live samples and exec guide the fork starts from.
func (s *System) restoreCheckpoint(ck *checkpoint.Checkpoint, prior *guideState) (uint64, error) {
	if ck == nil {
		return 0, fmt.Errorf("core: restoring a nil checkpoint")
	}
	if ck.Manifest.Database != s.DB.Name {
		return 0, fmt.Errorf("core: %w: checkpoint is for database %q, this system serves %q",
			checkpoint.ErrIncompatible, ck.Manifest.Database, s.DB.Name)
	}

	var entries []poolEntry
	if err := decodeSection(ck, SectionPool, &entries); err != nil {
		return 0, err
	}
	if len(entries) == 0 {
		return 0, snapshotCorrupt("empty candidate pool")
	}
	vecs, err := decodeVecs(ck)
	if err != nil {
		return 0, err
	}
	if len(vecs) != len(entries) {
		return 0, snapshotCorrupt("%d vectors for %d candidates", len(vecs), len(entries))
	}
	var stats generalize.Stats
	if err := decodeSection(ck, SectionStats, &stats); err != nil {
		return 0, err
	}
	modelsData := ck.Section(SectionModels)
	if modelsData == nil {
		return 0, snapshotCorrupt("section %q missing", SectionModels)
	}

	// Charge the restored snapshot to the fork's budget before anything
	// is derived. The stored text is exactly what the parsed candidates
	// print, so this charges what materializing the pool charges. A
	// budget too small for the checkpoint is a plain error (not
	// corruption): falling back a generation would not help — older
	// checkpoints are the same size — so the caller should fall through
	// to a cold build, which streams under the same budget and keeps
	// the prefix that fits.
	f := s.fork()
	budget := f.budget.Load()
	f.snapMem, f.vecMem = budget.Hold(), budget.Hold()
	var poolBytes, vecsBytes int64
	for i, e := range entries {
		poolBytes += candBytes(poolRec{sql: e.SQL, dialect: e.Dialect})
		vecsBytes += vecBytes(vecs[i]) + tableBytes(e.Dialect)
	}
	if err := f.snapMem.Grow(poolBytes); err != nil {
		return 0, fmt.Errorf("core: memory budget cannot hold the checkpointed pool: %w", err)
	}
	if err := f.vecMem.Grow(vecsBytes); err != nil {
		return 0, fmt.Errorf("core: memory budget cannot hold the checkpointed embeddings: %w", err)
	}
	pipeline, err := f.deriveSnapshot(entries, vecs, modelsData, ck.Section(SectionTable))
	if err == nil && len(vecs[0]) != pipeline.Encoder.Dim() {
		err = snapshotCorrupt("vectors of dimension %d for an encoder of dimension %d",
			len(vecs[0]), pipeline.Encoder.Dim())
	}
	if err != nil {
		return 0, err
	}

	// The fork's state starts with no build record: a restored snapshot
	// was complete when checkpointed, and its budget accepted it whole.
	next := *f.state.Load()
	next.gen = ck.Manifest.Generation
	next.pool = pipeline.Pool
	next.poolIdx = pipeline.PoolIdx
	next.prepStats = stats
	next.encoder = pipeline.Encoder
	next.pipeline = pipeline
	next.trained = true
	if prior != nil {
		f.samples, next.guide = prior.samples, prior.guide
	}
	f.state.Store(&next)
	_, pub, err := s.adopt(f)
	return pub, err
}

// deriveSnapshot decodes the models and the re-rank feature table
// (tableData, nil when the checkpoint has none) and computes what the
// checkpoint does not store — the parsed and bound pool with its
// lookup index, cost features and fill flags, and the vector index —
// and assembles the serving pipeline from them, as servingPipeline
// does for a fresh build. Each step reads only the decoded sections,
// so the steps run side by side on up to Options.Workers goroutines —
// in the order listed with one worker — and every worker count derives
// the same pipeline. The error is that of the first failing step in
// that order, and within the pool step that of the lowest failing
// candidate; a damaged table is corruption, a missing one that the
// models would re-rank with is incompatible, and a panic in any step
// is corruption, never a crash.
func (s *System) deriveSnapshot(entries []poolEntry, vecs []vector.Vec, modelsData, tableData []byte) (p *ltr.Pipeline, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, snapshotCorrupt("deriving the snapshot panicked: %v", rec)
		}
	}()
	p = &ltr.Pipeline{
		K:          s.Opts.RetrievalK,
		SkipRerank: s.Opts.NoRerank,
		DialVecs:   vecs,
		Workers:    s.Opts.Workers,
	}
	err = parallel.Do(s.Opts.Workers,
		func() error {
			m, err := decodeModels(modelsData)
			if err != nil {
				// The nested model envelope has its own integrity
				// checks; any failure inside a checkpoint that passed
				// its own checksums is still corruption from the
				// restore's point of view.
				return fmt.Errorf("core: %w: models section: %v", checkpoint.ErrCorrupt, err)
			}
			p.Encoder, p.Reranker = m.Encoder, m.Reranker
			return nil
		},
		func() error {
			pool, err := s.parsePool(entries)
			if err != nil {
				return err
			}
			p.Pool, p.PoolIdx, p.Costs, p.Fillable = pool, ltr.NewPoolIndex(pool), poolCosts(pool), poolFillable(pool)
			return nil
		},
		func() error {
			p.Index = indexFromVecs(vecs, s.Opts)
			return nil
		},
		func() error {
			// Whether the models carry a re-ranker is known only once
			// they decode, so the table is decoded whenever the options
			// re-rank and dropped below if the models cannot.
			if s.Opts.NoRerank || tableData == nil {
				return nil
			}
			dialects := make([]string, len(entries))
			for i, e := range entries {
				dialects[i] = e.Dialect
			}
			t, err := rerank.DecodeTable(dialects, tableData)
			if err != nil {
				return snapshotCorrupt("section %q does not decode: %v", SectionTable, err)
			}
			p.Table = t
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	switch {
	case p.Reranker == nil:
		p.Table = nil
	case !s.Opts.NoRerank && p.Table == nil:
		return nil, fmt.Errorf("core: %w: checkpoint has no section %q to re-rank with (written by a pipeline that does not re-rank)",
			checkpoint.ErrIncompatible, SectionTable)
	}
	return p, nil
}

// parsePool re-parses the stored candidate SQL and re-binds it against
// this system's database, failing on the lowest failing candidate.
func (s *System) parsePool(entries []poolEntry) ([]ltr.Candidate, error) {
	pool := make([]ltr.Candidate, len(entries))
	for i, e := range entries {
		q, err := sqlparse.Parse(e.SQL)
		if err != nil {
			return nil, snapshotCorrupt("candidate %d does not parse: %v", i, err)
		}
		if err := s.DB.Bind(q); err != nil {
			// The SQL is intact but no longer matches this schema: the
			// checkpoint predates a schema change. Incompatible, not
			// corrupt — but either way recovery must fall back.
			return nil, fmt.Errorf("core: %w: candidate %d does not bind against %s: %v",
				checkpoint.ErrIncompatible, i, s.DB.Name, err)
		}
		pool[i] = ltr.Candidate{SQL: q, Dialect: e.Dialect}
	}
	return pool, nil
}
