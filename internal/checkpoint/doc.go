// Package checkpoint persists the serving snapshot durably and
// recovers it correctly after any crash.
//
// A checkpoint is a single file: a self-describing envelope holding a
// gob manifest (format version, generation, database, per-section
// lengths and CRC-64/ECMA checksums) followed by raw named section
// payloads. The manifest header is an internal/durable block (magic,
// length, manifest, CRC), so the manifest is itself checksummed and
// one read decides exactly which byte ranges are trustworthy; a file
// that disagrees with its manifest anywhere — torn tail, flipped bit,
// truncated header — fails Decode with ErrCorrupt and is treated as
// absent. Envelopes from a different format version fail with
// ErrIncompatible instead, so layout changes never half-load.
//
// Store manages a directory of such files, one per snapshot
// generation. Writes go through the internal/durable atomic write (temp
// file in the same directory, fsync, atomic rename, directory fsync),
// so a crash at any instant leaves either the previous complete file
// or the new complete file — never a torn one under the final name.
// Recovery (Store.Recover) walks generations newest-first, fully
// validates each file and offers it to a caller-supplied acceptance
// check, falling back generation-by-generation past anything corrupt,
// incompatible or rejected; only an empty or wholly-invalid directory
// yields "start from clean state". Retention (Store.Prune) keeps the
// last N generations, and Store.CleanTemp sweeps temp files abandoned
// by interrupted writes. What is the checkpoint's own: the magic
// GARCKPT1, the 1 MiB manifest limit, and the policy that a file with
// any damage is rejected whole.
//
// The package is deliberately generic — sections are named byte
// slices — so internal/core can layer the actual snapshot codecs
// (query pool, dialects, embeddings, trained models, re-rank feature
// table) on top without a dependency cycle, and the crash-consistency
// tests can exercise the format with tiny synthetic payloads.
// Filesystem fault points for those tests come from internal/faults
// (Store.SetFaultInjector).
package checkpoint
