package core

import (
	"runtime"
	"time"

	"repro/internal/ltr"
	"repro/internal/sqlast"
)

// The stages of a profiled build, in the order they run. A set's pool
// encoding and list building alternate when TrainModels trains on
// several sets; each stage sums its runs.
const (
	stagePrepare        = "prepare"         // Prepare: generalization, dialects, the pool
	stageEncoderFit     = "encoder.fit"     // the IDF corpus, its one fit (shared by encoder and re-ranker), the triplets
	stageEncoderTrain   = "encoder.train"   // embed.Encoder.Train
	stagePoolEncode     = "pool.encode"     // the pool's embeddings under the trained encoder
	stageListsBuild     = "lists.build"     // the pool's re-rank feature table, then retrieval's top k per example (ltr.Pipeline.BuildLists)
	stageRerankFeatures = "rerank.features" // the lists' cross-pair features over the pool's table
	stageListNet        = "listnet.train"   // nn.MLP.TrainListwise
	stageDeploy         = "deploy"          // UseModels, which after TrainModels on the same pool builds no table and encodes nothing
)

// BuildStage is one stage of a profiled build: its wall time and the
// heap allocations made while it ran.
type BuildStage struct {
	Name   string
	Dur    time.Duration
	Allocs uint64
	Bytes  uint64
}

// stageClock attributes a build's wall time and allocations to its
// stages: each mark closes the stage that ran since the one before, so
// the stages add up to the time from the clock's start to its last
// mark. A nil clock records nothing.
type stageClock struct {
	last   time.Time
	mem    runtime.MemStats
	stages []BuildStage
}

func newStageClock() *stageClock {
	c := &stageClock{}
	runtime.ReadMemStats(&c.mem)
	c.last = time.Now()
	return c
}

func (c *stageClock) mark(name string) {
	if c == nil {
		return
	}
	now := time.Now()
	prev := c.mem
	runtime.ReadMemStats(&c.mem)
	st := BuildStage{Name: name, Dur: now.Sub(c.last), Allocs: c.mem.Mallocs - prev.Mallocs, Bytes: c.mem.TotalAlloc - prev.TotalAlloc}
	c.last = now
	for i := range c.stages {
		if c.stages[i].Name == name {
			c.stages[i].Dur += st.Dur
			c.stages[i].Allocs += st.Allocs
			c.stages[i].Bytes += st.Bytes
			return
		}
	}
	c.stages = append(c.stages, st)
}

// ProfileBuild runs one cold build of sys as a tenant activation runs
// it — Prepare(samples), TrainModels on sys's examples with sys.Opts,
// then UseModels — and returns the models with each stage's wall time
// and allocations, named as the stage constants above. The stages run
// back to back, so they add up to the build. Reading the allocation
// counters stops the world at every stage boundary: benchmarks call
// this, the serving path never does.
func ProfileBuild(sys *System, samples []*sqlast.Query, examples []ltr.Example) (*Models, []BuildStage, error) {
	clock := newStageClock()
	sys.Prepare(samples)
	clock.mark(stagePrepare)
	m, err := trainModels([]TrainingSet{{Sys: sys, Examples: examples}}, sys.Opts, clock)
	if err != nil {
		return nil, nil, err
	}
	if err := sys.UseModels(m); err != nil {
		return nil, nil, err
	}
	clock.mark(stageDeploy)
	return m, clock.stages, nil
}
