package core

import (
	"repro/internal/execguide"
	"repro/internal/ltr"
	"repro/internal/vector"
)

// ServingPipeline exposes the published pipeline to the external tests,
// which compare the parts a checkpoint restore derives with the
// exporter's.
func ServingPipeline(s *System) *ltr.Pipeline { return s.state.Load().pipeline }

// ExecGuide exposes the published exec guide to the external tests,
// which compare the sample instance it seeded with a cold build's.
func ExecGuide(s *System) *execguide.Guide { return s.state.Load().guide }

// TrainedVecs exposes the pool embeddings TrainModels kept, so the
// external tests can tell a deployment that reused them from one that
// encoded the pool.
func TrainedVecs(m *Models) []vector.Vec { return m.trained.vecs }
