// Package faults is a deterministic fault injector for the translation
// path and the durable-state path. Tests (and soak harnesses) register
// per-stage plans — inject an error, a panic, or a delay at the
// retrieval, re-ranking or value post-processing boundary, or a short
// write, bit flip, fsync error or rename failure at the filesystem
// points of a checkpoint write — and the instrumented code fires the
// injector at each point. Probabilistic plans draw from a seeded RNG,
// so a given seed always produces the same fault schedule.
//
// The zero of everything is safe: a nil *Injector never fires, and a
// stage with no plan is a no-op.
package faults

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Stage names one boundary of the translation pipeline.
type Stage string

// The three online stages of GAR's translation path, in order. Later
// stages refine an answer the earlier stage already produced, which is
// what makes stage-level degradation possible.
const (
	Retrieval   Stage = "retrieval"
	Rerank      Stage = "rerank"
	Postprocess Stage = "postprocess"
)

// ExecGuide is the execution-guided reranking boundary, fired after
// value post-processing when Options.ExecGuide is on. Like rerank and
// postprocess it is non-fatal: a fault here must degrade to the
// pre-execution LTR order.
const ExecGuide Stage = "execguide"

// The filesystem fault points of a durable checkpoint write, in write
// order. FSWrite is a data point (fired through FireData, so plans can
// truncate or corrupt the pending buffer); FSSync and FSRename are
// plain error points fired before the fsync and the atomic rename.
const (
	FSWrite  Stage = "fs.write"
	FSSync   Stage = "fs.sync"
	FSRename Stage = "fs.rename"
)

// FSRead is the data fault point of a durable-state read — fired by a
// durable.FrameReader given an injector with each frame's payload as it
// comes off disk, before the checksum is verified. Bit-flip plans model
// media rot the CRC must catch; error plans model a failing disk. Like
// the write points it is exercised through FireData.
const FSRead Stage = "fs.read"

// Train is the fault point of a background retraining cycle, fired
// after the trainer claims its budget slot and before any training
// work. A panic plan here proves the trainer's isolation boundary: a
// crashing cycle must degrade to "keep serving the old ranker".
const Train Stage = "train"

// Kind selects what a Plan injects when it fires.
type Kind int

const (
	// KindError makes Fire return the plan's error.
	KindError Kind = iota
	// KindPanic makes Fire panic with the plan's message.
	KindPanic
	// KindDelay makes Fire sleep for the plan's duration (or until the
	// context is done, in which case Fire returns the context error).
	KindDelay
	// KindBlock makes Fire park the caller until the plan's Until
	// channel is closed (or the context is done). Burst and admission
	// tests use it to hold requests in-flight deterministically.
	KindBlock
	// KindShortWrite truncates the pending buffer of a data fault point
	// (FireData) to the plan's Bytes prefix and fails the operation:
	// the caller writes the prefix, then sees the error — exactly what
	// a crash or a full disk mid-write leaves on disk.
	KindShortWrite
	// KindBitFlip flips one bit of the pending buffer of a data fault
	// point (selected by the plan's Offset) and lets the operation
	// succeed, modeling silent media corruption that only a checksum
	// can catch.
	KindBitFlip
)

// Plan describes one fault to inject at a stage boundary.
type Plan struct {
	Kind Kind
	// Err is returned by KindError plans (defaults to a generic error).
	Err error
	// Message is the panic value of KindPanic plans.
	Message string
	// Delay is how long KindDelay plans block.
	Delay time.Duration
	// Until releases KindBlock plans when closed.
	Until <-chan struct{}
	// After skips the first After eligible calls before firing.
	After int
	// Times caps how often the plan fires; 0 means no cap.
	Times int
	// P is the probability of firing on an eligible call, drawn from
	// the injector's seeded RNG; outside (0,1) the plan always fires.
	P float64
	// Bytes is the prefix KindShortWrite plans let through before
	// failing, clamped to the buffer length.
	Bytes int
	// Offset selects the corrupted bit of KindBitFlip plans: byte
	// Offset modulo the buffer length, bit Offset modulo 8.
	Offset int
}

type planState struct {
	Plan
	calls int // eligible calls seen
	fired int
}

// Injector holds per-stage fault plans. It is safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	plans map[Stage][]*planState
	calls map[Stage]int
	fired map[Stage]int
}

// NewInjector creates an empty injector; seed drives probabilistic
// plans.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		plans: map[Stage][]*planState{},
		calls: map[Stage]int{},
		fired: map[Stage]int{},
	}
}

// Inject registers a plan at a stage. Multiple plans on one stage fire
// in registration order; the first that triggers wins the call.
func (in *Injector) Inject(stage Stage, p Plan) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans[stage] = append(in.plans[stage], &planState{Plan: p})
	return in
}

// Fail is shorthand for an always-on error plan.
func (in *Injector) Fail(stage Stage, err error) *Injector {
	return in.Inject(stage, Plan{Kind: KindError, Err: err})
}

// Panic is shorthand for an always-on panic plan.
func (in *Injector) Panic(stage Stage, message string) *Injector {
	return in.Inject(stage, Plan{Kind: KindPanic, Message: message})
}

// Delay is shorthand for an always-on delay plan.
func (in *Injector) Delay(stage Stage, d time.Duration) *Injector {
	return in.Inject(stage, Plan{Kind: KindDelay, Delay: d})
}

// Block registers an always-on gate at the stage: every caller reaching
// the stage parks until the returned release function is invoked (it is
// idempotent). Callers whose context ends first unpark with the context
// error. Deterministic saturation for burst tests: admit N requests,
// wait for them to park, observe the system's behavior, then release.
func (in *Injector) Block(stage Stage) (release func()) {
	ch := make(chan struct{})
	in.Inject(stage, Plan{Kind: KindBlock, Until: ch})
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// choose records the call and picks the first triggering plan for the
// stage, or nil.
func (in *Injector) choose(stage Stage) *planState {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls[stage]++
	for _, ps := range in.plans[stage] {
		ps.calls++
		if ps.calls <= ps.After {
			continue
		}
		if ps.Times > 0 && ps.fired >= ps.Times {
			continue
		}
		if ps.P > 0 && ps.P < 1 && in.rng.Float64() >= ps.P {
			continue
		}
		ps.fired++
		in.fired[stage]++
		return ps
	}
	return nil
}

// Fire is called by the pipeline at a stage boundary. It executes the
// first triggering plan: returning an error, panicking, or sleeping.
// A nil receiver or an unplanned stage is a no-op returning nil.
// Data-only kinds (short write, bit flip) degrade to plain errors at a
// non-data point — a fault point without a buffer cannot corrupt one,
// but the fault must not pass silently.
func (in *Injector) Fire(ctx context.Context, stage Stage) error {
	if in == nil {
		return nil
	}
	chosen := in.choose(stage)
	if chosen == nil {
		return nil
	}
	switch chosen.Kind {
	case KindPanic:
		msg := chosen.Message
		if msg == "" {
			msg = "injected panic"
		}
		panic(fmt.Sprintf("faults: %s: %s", stage, msg))
	case KindDelay:
		t := time.NewTimer(chosen.Delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	case KindBlock:
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-chosen.Until:
			return nil
		}
	default: // KindError, and data-only kinds at a non-data point
		if chosen.Err != nil {
			return chosen.Err
		}
		return fmt.Errorf("faults: injected error at %s", stage)
	}
}

// FireData is Fire for fault points that carry a pending byte buffer —
// the filesystem write of a checkpoint. The returned slice is what the
// caller must actually hand to the operation, and the returned error is
// what the operation must report after consuming it:
//
//   - KindShortWrite returns the plan's Bytes-long prefix and an error:
//     the caller writes the prefix, then fails, leaving a torn buffer
//     behind exactly as a crash mid-write would;
//   - KindBitFlip returns the buffer with one bit flipped and no error:
//     the write "succeeds" and only a checksum can tell;
//   - KindError fails before anything is written (empty buffer);
//   - KindPanic panics as usual.
//
// Time-based kinds (delay, block) are not meaningful at a data point
// and degrade to an immediate no-op. The input slice is never mutated;
// corrupting kinds return a copy. A nil receiver or an unplanned stage
// returns the buffer unchanged.
func (in *Injector) FireData(stage Stage, data []byte) ([]byte, error) {
	if in == nil {
		return data, nil
	}
	chosen := in.choose(stage)
	if chosen == nil {
		return data, nil
	}
	planErr := func() error {
		if chosen.Err != nil {
			return chosen.Err
		}
		return fmt.Errorf("faults: injected error at %s", stage)
	}
	switch chosen.Kind {
	case KindPanic:
		msg := chosen.Message
		if msg == "" {
			msg = "injected panic"
		}
		panic(fmt.Sprintf("faults: %s: %s", stage, msg))
	case KindShortWrite:
		n := chosen.Bytes
		if n < 0 {
			n = 0
		}
		if n > len(data) {
			n = len(data)
		}
		if chosen.Err != nil {
			return data[:n], fmt.Errorf("faults: injected short write at %s (%d of %d bytes): %w",
				stage, n, len(data), chosen.Err)
		}
		return data[:n], fmt.Errorf("faults: injected short write at %s (%d of %d bytes)", stage, n, len(data))
	case KindBitFlip:
		if len(data) == 0 {
			return data, nil
		}
		off := chosen.Offset
		if off < 0 {
			off = -off
		}
		corrupted := append([]byte(nil), data...)
		corrupted[off%len(data)] ^= 1 << (off % 8)
		return corrupted, nil
	case KindError:
		return data[:0], planErr()
	default: // KindDelay, KindBlock: no context at a data point
		return data, nil
	}
}

// Calls reports how often Fire was invoked for the stage.
func (in *Injector) Calls(stage Stage) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[stage]
}

// Fired reports how often any plan actually triggered at the stage.
func (in *Injector) Fired(stage Stage) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[stage]
}
