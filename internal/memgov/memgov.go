// Package memgov is the hierarchical byte-budget accountant behind
// resource-governed pool construction and serving.
//
// A Budget tracks reserved bytes against an optional limit and chains
// to a parent, forming a process → per-tenant tree: the serve process
// owns the root (sized by -memlimit) and each fleet tenant gets a child
// share, which its pool builds, snapshots and translation cache charge.
// Reserve walks the ancestor chain charging every level; if any level
// would exceed its limit the whole reservation is rolled back and a
// *BudgetError (matching ErrBudgetExceeded via errors.Is) identifies
// the level that refused. Callers treat a denial as a signal — stop
// growing, truncate, skip a cache insert — never as a fatal condition.
//
// memgov is an accountant, not an allocator: callers estimate the
// bytes a structure retains and must pair every successful Reserve
// with a Release. The Reservation helper keeps that pairing honest
// for multi-step builds. A nil *Budget is fully inert (every method
// is a cheap no-op), so unbudgeted configurations pay nothing.
package memgov

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrBudgetExceeded is the sentinel matched by errors.Is for any
// reservation denied by a budget limit.
var ErrBudgetExceeded = errors.New("memgov: budget exceeded")

// BudgetError reports a denied reservation: which budget in the chain
// refused, how much was asked for, and its usage at the time.
type BudgetError struct {
	Budget    string // name of the level that denied
	Requested int64
	Used      int64 // bytes reserved at that level when denied
	Limit     int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("memgov: budget %q exceeded: requested %d with %d/%d used",
		e.Budget, e.Requested, e.Used, e.Limit)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Budget is one level of the accounting tree. The zero value is not
// usable; construct with New or Child. All methods are safe for
// concurrent use and safe on a nil receiver.
type Budget struct {
	name   string
	parent *Budget
	limit  int64 // <= 0 means unlimited at this level
	used   atomic.Int64
	peak   atomic.Int64
	denied atomic.Uint64
}

// New creates a root budget. limit <= 0 means this level never denies
// (useful as a pure meter).
func New(name string, limit int64) *Budget {
	return &Budget{name: name, limit: limit}
}

// Child creates a sub-budget whose reservations also charge b and its
// ancestors. limit <= 0 bounds the child only by its ancestors. On a
// nil receiver Child returns nil, so an unbudgeted tree stays inert
// all the way down.
func (b *Budget) Child(name string, limit int64) *Budget {
	if b == nil {
		return nil
	}
	return &Budget{name: name, parent: b, limit: limit}
}

// Name returns the budget's name ("" on nil).
func (b *Budget) Name() string {
	if b == nil {
		return ""
	}
	return b.name
}

// Limit returns this level's own limit (0 on nil or unlimited).
func (b *Budget) Limit() int64 {
	if b == nil || b.limit <= 0 {
		return 0
	}
	return b.limit
}

// EffectiveLimit returns the tightest limit on the ancestor chain
// including this level, or 0 if every level is unlimited.
func (b *Budget) EffectiveLimit() int64 {
	var min int64
	for cur := b; cur != nil; cur = cur.parent {
		if cur.limit > 0 && (min == 0 || cur.limit < min) {
			min = cur.limit
		}
	}
	return min
}

// Reserve charges n bytes at this level and every ancestor. If any
// level would exceed its limit, nothing is charged anywhere and the
// returned *BudgetError names the refusing level. n <= 0 and nil
// receivers succeed trivially.
func (b *Budget) Reserve(n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	for cur := b; cur != nil; cur = cur.parent {
		used := cur.used.Add(n)
		if cur.limit > 0 && used > cur.limit {
			cur.used.Add(-n)
			cur.denied.Add(1)
			for r := b; r != cur; r = r.parent {
				r.used.Add(-n)
			}
			return &BudgetError{Budget: cur.name, Requested: n, Used: used - n, Limit: cur.limit}
		}
		cur.bumpPeak(used)
	}
	return nil
}

func (b *Budget) bumpPeak(used int64) {
	for {
		p := b.peak.Load()
		if used <= p || b.peak.CompareAndSwap(p, used) {
			return
		}
	}
}

// Release returns n bytes to this level and every ancestor. Callers
// must release exactly what they reserved; the accountant clamps at
// zero defensively but an imbalance is a caller bug.
func (b *Budget) Release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	for cur := b; cur != nil; cur = cur.parent {
		if cur.used.Add(-n) < 0 {
			// Clamp: better a zeroed meter than a budget that
			// permanently denies because of a double release.
			cur.used.Store(0)
		}
	}
}

// Used returns the bytes currently reserved at this level.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Peak returns the high-water mark of reserved bytes at this level.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	return b.peak.Load()
}

// Denied returns how many reservations this level has refused.
func (b *Budget) Denied() uint64 {
	if b == nil {
		return 0
	}
	return b.denied.Load()
}

// Stats is a point-in-time gauge snapshot, shaped for /healthz.
type Stats struct {
	Name   string `json:"name"`
	Limit  int64  `json:"limit"` // 0 = unlimited at this level
	Used   int64  `json:"used"`
	Peak   int64  `json:"peak"`
	Denied uint64 `json:"denied"`
}

// Stats snapshots the budget's gauges; nil on a nil receiver.
func (b *Budget) Stats() *Stats {
	if b == nil {
		return nil
	}
	return &Stats{
		Name:   b.name,
		Limit:  b.Limit(),
		Used:   b.used.Load(),
		Peak:   b.peak.Load(),
		Denied: b.denied.Load(),
	}
}

// Reservation accumulates charges against one budget and releases
// them as a unit, keeping Reserve/Release pairing honest across
// multi-step builds (pool bytes grow candidate by candidate; the
// snapshot releases everything when replaced). Grow and Release are
// safe for concurrent use and safe on a nil receiver.
type Reservation struct {
	b     *Budget
	bytes atomic.Int64
}

// Hold opens an empty reservation against b. On a nil budget it
// returns nil; all Reservation methods tolerate a nil receiver.
func (b *Budget) Hold() *Reservation {
	if b == nil {
		return nil
	}
	return &Reservation{b: b}
}

// Grow reserves n more bytes. A denial leaves the reservation's
// previous charges intact.
func (r *Reservation) Grow(n int64) error {
	if r == nil || n <= 0 {
		return nil
	}
	if err := r.b.Reserve(n); err != nil {
		return err
	}
	r.bytes.Add(n)
	return nil
}

// Bytes returns the bytes currently held.
func (r *Reservation) Bytes() int64 {
	if r == nil {
		return 0
	}
	return r.bytes.Load()
}

// Shrink returns n bytes of the held reservation to the budget,
// keeping the rest held. Callers use it to un-account one element of a
// multi-step build that failed after its reservation.
func (r *Reservation) Shrink(n int64) {
	if r == nil || n <= 0 {
		return
	}
	r.bytes.Add(-n)
	r.b.Release(n)
}

// Release returns everything held to the budget. Idempotent: the held
// count swaps to zero atomically, so deferred cleanup can overlap
// explicit handoff paths safely, and the reservation stays usable for
// further Grow calls.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.b.Release(r.bytes.Swap(0))
}
