package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/generalize"
	"repro/internal/ltr"
	"repro/internal/parallel"
	"repro/internal/rerank"
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
)

// ErrNotReady is returned by ExportCheckpoint while no translatable
// snapshot is published: there is nothing worth persisting before the
// first completed Train/UseModels/Swap.
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
// trained models and generalization stats. The manifest's Generation is
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
	vecs := st.pipeline.DialVecs
	if vecs == nil {
		// Defensive: every pipeline built by this package carries its
		// dialect vectors, but re-encoding is always a valid fallback.
		vecs = make([]vector.Vec, len(st.pool))
		for i, c := range st.pool {
			vecs[i] = st.encoder.Encode(c.Dialect)
		}
	}

	var poolBuf, statsBuf, modelsBuf bytes.Buffer
	if err := gob.NewEncoder(&poolBuf).Encode(entries); err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding pool section: %w", err)
	}
	vecsBlock, err := vector.EncodeRows(vecs)
	if err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding vecs section: %w", err)
	}
	if err := gob.NewEncoder(&statsBuf).Encode(st.prepStats); err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding stats section: %w", err)
	}
	m := &Models{Encoder: st.encoder, Reranker: st.pipeline.Reranker}
	if err := m.Save(&modelsBuf); err != nil {
		return checkpoint.Manifest{}, nil, err
	}

	manifest := checkpoint.Manifest{
		Generation:  st.gen,
		Database:    s.DB.Name,
		CreatedUnix: time.Now().Unix(),
	}
	sections := []checkpoint.Section{
		{Name: SectionPool, Data: poolBuf.Bytes()},
		{Name: SectionVecs, Data: vecsBlock},
		{Name: SectionModels, Data: modelsBuf.Bytes()},
		{Name: SectionStats, Data: statsBuf.Bytes()},
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
// embeddings (no re-encoding), re-rank feature table derived from the
// dialects, models deployed, pool generation restored. The derivations
// run side by side on up to Options.Workers goroutines, and every
// worker count publishes the same snapshot. After it returns the
// system is Ready and translates without ever running Prepare or
// Train.
//
// A checkpoint for a different database fails with
// checkpoint.ErrIncompatible; undecodable or internally inconsistent
// sections fail with checkpoint.ErrCorrupt. On any failure the system
// is left exactly as it was — the new state is published only after
// every section has validated.
func (s *System) RestoreCheckpoint(ck *checkpoint.Checkpoint) error {
	_, err := s.restoreCheckpoint(ck)
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
// supersede them (see bumpGen). The restored state is already durable
// in st, so a Checkpointer on st counts it as written: a tenant evicted
// without changing since its warm start is not checkpointed again.
func (s *System) RecoverCheckpoint(st *checkpoint.Store) (*checkpoint.Checkpoint, []checkpoint.Skipped, error) {
	var pub uint64
	ck, skipped, err := st.Recover(func(ck *checkpoint.Checkpoint) error {
		var rerr error
		pub, rerr = s.restoreCheckpoint(ck)
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

// restoreCheckpoint is RestoreCheckpoint, also returning the number of
// the publication that made the restored state current.
func (s *System) restoreCheckpoint(ck *checkpoint.Checkpoint) (uint64, error) {
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

	// Account the restored snapshot against the memory budget before
	// anything is derived. The stored text is exactly what the parsed
	// candidates print, so this charges what materializing the pool
	// charges. A budget too small for the checkpoint is a plain error
	// (not corruption): falling back a generation would not help —
	// older checkpoints are the same size — so the caller should fall
	// through to a cold build, which streams and spills under the same
	// budget instead of materializing the checkpoint whole.
	budget := s.resources.Load().budget
	poolMem, vecMem := budget.Hold(), budget.Hold()
	var poolBytes, vecsBytes int64
	for i, e := range entries {
		poolBytes += candBytes(poolRec{sql: e.SQL, dialect: e.Dialect})
		vecsBytes += vecBytes(vecs[i]) + tableBytes(e.Dialect)
	}
	if err := poolMem.Grow(poolBytes); err != nil {
		return 0, fmt.Errorf("core: memory budget cannot hold the checkpointed pool: %w", err)
	}
	if err := vecMem.Grow(vecsBytes); err != nil {
		poolMem.Release()
		return 0, fmt.Errorf("core: memory budget cannot hold the checkpointed embeddings: %w", err)
	}
	pipeline, err := s.deriveSnapshot(entries, vecs, modelsData)
	if err == nil && len(vecs[0]) != pipeline.Encoder.Dim() {
		err = snapshotCorrupt("vectors of dimension %d for an encoder of dimension %d",
			len(vecs[0]), pipeline.Encoder.Dim())
	}
	if err != nil {
		poolMem.Release()
		vecMem.Release()
		return 0, err
	}

	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := *s.state.Load()
	// Generation continuity: on recovery into a fresh system the
	// restored snapshot keeps the generation it was checkpointed at, so
	// health endpoints, Result.Generation and the generation-keyed
	// caches line up across the restart. A system that has already
	// moved past the checkpoint (a rollback) instead advances to a
	// fresh generation: a generation number must never name two
	// different snapshots, or a translation in flight on the outgoing
	// snapshot could repopulate the caches under the restored
	// generation after the purge below.
	if ck.Manifest.Generation > next.gen {
		next.gen = ck.Manifest.Generation
	} else if ck.Manifest.Generation < next.gen {
		s.bumpGen(&next)
	}
	next.pool = pipeline.Pool
	next.poolIdx = pipeline.PoolIdx
	next.prepStats = stats
	// A restored snapshot carries no build degradation: it was complete
	// when checkpointed, and the budget above accepted it whole.
	next.info = buildInfo{}
	next.encoder = pipeline.Encoder
	next.pipeline = pipeline
	next.trained = true
	s.adoptSnapMem(poolMem, vecMem)
	s.publish(&next)
	s.purgeCaches()
	return next.pub, nil
}

// deriveSnapshot computes every part of a restored snapshot that the
// checkpoint does not store — the models, the parsed and bound pool
// with its lookup index and cost features, the vector index and the
// re-rank feature table — and assembles the serving pipeline from
// them, as servingPipeline does for a fresh build. Each step reads
// only the decoded sections, so the steps run side by side on up to
// Options.Workers goroutines — in the order listed with one worker —
// and every worker count derives the same pipeline. The error is that
// of the first failing step in that order, and within the pool step
// that of the lowest failing candidate; a panic in any step is
// corruption, never a crash.
func (s *System) deriveSnapshot(entries []poolEntry, vecs []vector.Vec, modelsData []byte) (p *ltr.Pipeline, err error) {
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
			// they decode, so the table is built whenever the options
			// re-rank and dropped below if the models cannot.
			if !s.Opts.NoRerank {
				dialects := make([]string, len(entries))
				for i, e := range entries {
					dialects[i] = e.Dialect
				}
				p.Table = rerank.NewTable(dialects)
			}
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	if p.Reranker == nil {
		p.Table = nil
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
