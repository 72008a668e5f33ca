// Package transcache is a stamp-keyed LRU cache for the translation
// hot path. Every entry is stamped with the publication of the serving
// snapshot that produced it (internal/core numbers every publication:
// a reload, a model redeploy, a content change), and a lookup only hits
// when the caller's current stamp matches — so a publication
// invalidates the whole cache implicitly, with no flush-coordination
// between the swap and in-flight readers, and a stale entry can never
// be served across a snapshot swap, even one an in-flight reader of the
// outgoing snapshot writes after the swap.
//
// A nil *Cache is valid and never hits: Get misses, Put drops, Stats is
// zero. That lets callers disable caching by simply not constructing
// one.
package transcache

import (
	"sync"

	"repro/internal/memgov"
)

// Stats is a point-in-time counter snapshot of a cache.
type Stats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that found nothing (including entries
	// rejected because their stamp was stale).
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by capacity pressure, budget
	// pressure or stamp staleness.
	Evictions uint64 `json:"evictions"`
	// Len is the current number of live entries.
	Len int `json:"size"`
	// Capacity is the maximum number of entries.
	Capacity int `json:"capacity"`
	// Bytes is the accounted size of the live entries (0 ungoverned).
	Bytes int64 `json:"bytes"`
	// Denied counts inserts dropped because the budget refused them
	// even after the cache evicted everything else.
	Denied uint64 `json:"denied"`
}

// entry is one cached value with its intrusive LRU links.
type entry[V any] struct {
	key        string
	stamp      uint64
	val        V
	bytes      int64
	prev, next *entry[V]
}

// Cache is a fixed-capacity LRU keyed by (stamp, string). It is
// safe for concurrent use.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*entry[V]
	// head is most-recently used, tail least-recently used.
	head, tail *entry[V]

	// budget/sizeOf, when installed by Govern, account each entry's
	// estimated bytes; bytes is the cache's live total.
	budget *memgov.Budget
	sizeOf func(V) int64
	bytes  int64

	hits, misses, evictions, denied uint64
}

// New builds a cache bounded to capacity entries. A capacity below 1
// returns nil — the valid never-hitting cache — so callers can pass a
// "disabled" size straight through.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		return nil
	}
	return &Cache[V]{capacity: capacity, items: make(map[string]*entry[V], capacity)}
}

// Get returns the value cached under key for the given stamp. An entry
// written under another stamp is treated as a miss and evicted on the
// spot.
func (c *Cache[V]) Get(stamp uint64, key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return zero, false
	}
	if e.stamp != stamp {
		c.remove(e)
		c.evictions++
		c.misses++
		return zero, false
	}
	c.moveToFront(e)
	c.hits++
	return e.val, true
}

// Govern installs byte accounting against budget: each entry's
// estimated size (sizeOf plus key overhead) is reserved on insert and
// released on eviction. When the budget refuses an insert, the cache
// sheds least-recently-used entries until the reservation fits; if it
// empties first the insert is dropped and counted in Stats.Denied — a
// cache entry is never worth failing a request over. Install before
// the first Put; existing entries are not retro-accounted.
func (c *Cache[V]) Govern(budget *memgov.Budget, sizeOf func(V) int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget, c.sizeOf = budget, sizeOf
}

// entryBytes estimates one entry's accounted size; 0 when ungoverned,
// so the budget path costs nothing until Govern installs it.
func (c *Cache[V]) entryBytes(key string, val V) int64 {
	if c.sizeOf == nil {
		return 0
	}
	return int64(len(key)) + 96 + c.sizeOf(val)
}

// reserveEvicting reserves sz against the budget, shedding LRU entries
// (never keep) until it fits or nothing is left to shed. Callers hold
// mu.
func (c *Cache[V]) reserveEvicting(sz int64, keep *entry[V]) bool {
	for {
		if c.budget.Reserve(sz) == nil {
			c.bytes += sz
			return true
		}
		victim := c.tail
		if victim != nil && victim == keep {
			victim = victim.prev
		}
		if victim == nil {
			return false
		}
		c.remove(victim)
		c.evictions++
	}
}

// Put stores the value under key for the given stamp, replacing any
// existing entry for the key and evicting least-recently used entries
// under capacity or budget pressure.
func (c *Cache[V]) Put(stamp uint64, key string, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sz := c.entryBytes(key, val)
	if e, ok := c.items[key]; ok {
		c.budget.Release(e.bytes)
		c.bytes -= e.bytes
		e.bytes = 0
		if !c.reserveEvicting(sz, e) {
			c.remove(e)
			c.evictions++
			c.denied++
			return
		}
		e.stamp, e.val, e.bytes = stamp, val, sz
		c.moveToFront(e)
		return
	}
	if !c.reserveEvicting(sz, nil) {
		c.denied++
		return
	}
	e := &entry[V]{key: key, stamp: stamp, val: val, bytes: sz}
	c.items[key] = e
	c.pushFront(e)
	if len(c.items) > c.capacity {
		c.remove(c.tail)
		c.evictions++
	}
}

// Purge drops every entry, keeping the counters.
func (c *Cache[V]) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions += uint64(len(c.items))
	c.budget.Release(c.bytes)
	c.bytes = 0
	c.items = make(map[string]*entry[V], c.capacity)
	c.head, c.tail = nil, nil
}

// Stats returns a snapshot of the cache counters. A nil cache reports
// the zero Stats.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       len(c.items),
		Capacity:  c.capacity,
		Bytes:     c.bytes,
		Denied:    c.denied,
	}
}

// pushFront links e as the most-recently-used entry. Callers hold mu.
func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// remove unlinks e, drops it from the map and returns its accounted
// bytes to the budget. Callers hold mu.
func (c *Cache[V]) remove(e *entry[V]) {
	c.budget.Release(e.bytes)
	c.bytes -= e.bytes
	e.bytes = 0
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(c.items, e.key)
}

// moveToFront marks e most-recently used. Callers hold mu.
func (c *Cache[V]) moveToFront(e *entry[V]) {
	if c.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
}
