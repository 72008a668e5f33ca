// Package repro is a from-scratch Go reproduction of "GAR: A
// Generate-and-Rank Approach for Natural Language to SQL Translation"
// (Fan et al., ICDE 2023).
//
// The public API lives in repro/gar. Translation is available both as
// System.Translate and as System.TranslateContext, which threads a
// context.Context through the ranking hot loops (cancellation and
// deadlines are observed mid-scan), isolates each pipeline stage behind
// a recover boundary, and degrades gracefully: a re-ranking failure
// falls back to retrieval order and a value post-processing failure
// falls back to masked SQL, both flagged on Result.Degraded. A System
// is safe for concurrent translations, and `gar serve` (cmd/gar) runs
// systems as one HTTP JSON service: every database is a tenant of an
// internal/fleet registry — one tenant named default for -spec or
// -demo, one per spec file for -specdir — behind one route table
// (/db/{name}/..., with /translate, /reload and /feedback as aliases
// of /db/default/...). internal/fleet is the only serving code that
// wires memory budgets, spill, checkpoints, the feedback WAL and the
// trainer, and the only health renderer. See the README's "Serving &
// robustness" section.
//
// The serving state is copy-on-write: pool, index and models live in
// one immutable snapshot behind an atomic pointer, so a translation
// always observes a single consistent generation while System.Swap
// (surfaced as POST /reload) publishes a complete replacement with
// zero downtime. The server is overload-protected — internal/admit
// bounds each tenant's in-flight work with a deadline-aware queue and
// sheds the excess with 429 + Retry-After, internal/breaker trips a
// failing re-ranker into retrieval-only degraded mode, and /readyz vs
// /healthz distinguish "routable" from "healthy". Model files are written
// crash-safely (temp file + fsync + rename, checksummed envelope) and
// torn or corrupted streams are rejected with gar.ErrCorruptModels.
// See the README's "Overload & hot reload" section.
//
// The repository is statically analyzed on two axes. internal/sqlcheck
// is a rule-based semantic analyzer for the SQL subset (join-graph
// connectivity, predicate type compatibility, aggregate/GROUP BY
// coherence, ORDER BY scope, subquery shape); the generalizer uses it
// to prune invalid candidates and `gar lint` applies it from the
// command line. internal/lint plus cmd/garlint form a custom vet tool
// (run via `go vet -vettool`, wired into `make verify`) whose
// analyzers enforce the repository's robustness conventions: no panics
// in library code, context propagation, and Must* helpers confined to
// tests and generators.
//
// Models files, checkpoints, spill runs and the feedback WAL share one
// durable-file layer, internal/durable: the CRC-64 checksum, the atomic
// temp+fsync+rename write, the length+CRC frame, the magic-headed
// block and the temp sweep; each format keeps its own magic, length
// limit and torn-tail policy.
//
// The serving loop can also learn online. internal/feedback is a
// durable append-only WAL (internal/durable frames, fsync before
// acknowledgement, crash recovery that truncates torn tails) for user
// feedback posted to /feedback — an endorsed candidate or a corrected
// SQL text, validated by re-parse and re-bind before it is recorded. A
// background gar.Trainer folds accepted pairs into the training set
// and retrains off the serving path; a retrained candidate is
// shadow-scored against the live snapshot on held-out feedback and
// only promoted when it is no worse, with a checkpointed rollback point
// and a post-promotion regression detector that restores the prior
// generation automatically. `gar feedback list|verify|compact` inspect
// and maintain the logs. See the README's "Online learning & safe
// promotion" section.
//
// The internal packages implement
// every substrate the paper depends on — SQL parsing and execution,
// SPIDER-style normalization and difficulty classification, the
// compositional generalizer, the dialect builder, the two-stage
// learning-to-rank pipeline, four baseline translators, synthetic
// versions of the GEO, SPIDER, MT-TEQL and QBEN benchmarks, and a
// deterministic fault injector (internal/faults) used by the
// robustness test harness. The
// top-level bench_test.go regenerates every table and figure of the
// paper's evaluation section; see DESIGN.md and EXPERIMENTS.md.
package repro
