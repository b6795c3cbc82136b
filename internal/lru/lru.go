// Package lru implements the least-recently-used pool that bounds the chunk
// store's cache of location map nodes.
//
// The pool has a single owner: the chunk store registers, touches, removes
// and evicts map nodes only while holding its state mutex exclusively, so
// the pool performs no locking of its own. (The paper shares one such list
// between the object cache and the map-node cache to apportion one budget
// dynamically, §4.2.2; here decoded objects live in the object store's
// decode table under a budget of their own, so no layer evicts another's
// entries.) Owners register entries with a size and an eviction callback;
// when the pool exceeds its budget, the least recently used entries are
// evicted through their callbacks.
package lru

import "container/list"

// Entry is a cache resident registered with a Pool. The zero value is not
// usable; create entries through Pool.Add.
type Entry struct {
	pool *Pool
	elem *list.Element
	size int64
	// evict is called by the pool's owner goroutine when the pool discards
	// the entry. It must drop the owner's reference. Returning false vetoes
	// the eviction (e.g., a map node with cached children); the pool then
	// skips this entry.
	evict func() bool
}

// Pool is a fixed-budget LRU list. It is not safe for concurrent use: its
// owner serializes every call.
type Pool struct {
	budget int64
	used   int64
	ll     *list.List // front = most recently used
}

// NewPool creates a pool with the given byte budget. A non-positive budget
// disables eviction (everything is cached).
func NewPool(budget int64) *Pool {
	return &Pool{budget: budget, ll: list.New()}
}

// Used returns the total size of resident entries.
func (p *Pool) Used() int64 { return p.used }

// Budget returns the configured byte budget.
func (p *Pool) Budget() int64 { return p.budget }

// Len returns the number of resident entries.
func (p *Pool) Len() int { return p.ll.Len() }

// Add registers a new entry of the given size as most recently used and
// then enforces the budget. The evict callback must remove the owner's
// reference to the cached value and return true, or return false to veto.
//
// The entry being added is never evicted by its own enforcement pass: the
// caller is, by definition, about to use the value, and evicting it midway
// would hand back a reference the owner no longer tracks.
func (p *Pool) Add(size int64, evict func() bool) *Entry {
	e := &Entry{pool: p, size: size, evict: evict}
	e.elem = p.ll.PushFront(e)
	p.used += size
	p.enforce(e)
	return e
}

// Touch marks the entry most recently used.
func (e *Entry) Touch() {
	if e.elem != nil {
		e.pool.ll.MoveToFront(e.elem)
	}
}

// Remove unregisters the entry without invoking its eviction callback (the
// owner is dropping it voluntarily).
func (e *Entry) Remove() {
	if e.elem == nil {
		return
	}
	e.pool.used -= e.size
	e.pool.ll.Remove(e.elem)
	e.elem = nil
}

// enforceScanLimit bounds how many entries one enforcement pass examines.
// When the pool is dominated by unevictable residents (dirty map nodes,
// nodes with cached children), an unbounded walk would revisit every vetoing
// entry on every Add — O(n²) overall. A bounded scan keeps Add O(1)
// amortized; the pool temporarily exceeds its budget instead, which is the
// only sound choice when residents cannot be dropped.
const enforceScanLimit = 64

// Enforce evicts least recently used, non-vetoing entries until the pool
// fits its budget, examining at most enforceScanLimit entries.
func (p *Pool) Enforce() { p.enforce(nil) }

// enforce is Enforce sparing keep. Vetoing entries (and keep) are rotated
// to the front so successive passes do not rescan the same unevictable tail.
func (p *Pool) enforce(keep *Entry) {
	if p.budget <= 0 {
		return
	}
	for examined := 0; examined < enforceScanLimit && p.used > p.budget; examined++ {
		elem := p.ll.Back()
		if elem == nil {
			return
		}
		e := elem.Value.(*Entry)
		if e != keep && e.evict() {
			p.used -= e.size
			p.ll.Remove(elem)
			e.elem = nil
			continue
		}
		// Unevictable right now: move it out of the scan window. This
		// perturbs strict LRU order for vetoing entries, which is fine —
		// they were not eviction candidates anyway.
		p.ll.MoveToFront(elem)
	}
}
