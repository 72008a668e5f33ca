package core

import "repro/internal/ltr"

// ServingPipeline exposes the published pipeline to the external tests,
// which compare the parts a checkpoint restore derives with the
// exporter's.
func ServingPipeline(s *System) *ltr.Pipeline { return s.state.Load().pipeline }
