package core

import (
	"context"

	"repro/internal/execguide"
	"repro/internal/ltr"
	"repro/internal/rerank"
	"repro/internal/vector"
)

// ServingPipeline exposes the published pipeline to the external tests,
// which compare the parts a checkpoint restore derives with the
// exporter's.
func ServingPipeline(s *System) *ltr.Pipeline { return s.state.Load().pipeline }

// Pinned loads the published snapshot and returns a translation of nl
// on it, to run later: a translation in flight across whatever
// publication happens in between.
func Pinned(s *System, nl string) func() (*Translation, error) {
	st := s.state.Load()
	return func() (*Translation, error) { return s.translateOn(context.Background(), st, nl, 0) }
}

// ExecGuide exposes the published exec guide to the external tests,
// which compare the sample instance it seeded with a cold build's.
func ExecGuide(s *System) *execguide.Guide { return s.state.Load().guide }

// TrainedVecs exposes the pool embeddings TrainModels kept, so the
// external tests can tell a deployment that reused them from one that
// encoded the pool.
func TrainedVecs(m *Models) []vector.Vec { return m.trained.vecs }

// TrainedTable exposes the feature table TrainModels built over its
// pool, so the external tests can tell a deployment that reused it from
// one that built another.
func TrainedTable(m *Models) *rerank.Table { return m.trained.table }
