package objectstore

import "sync/atomic"

// The decode table is the object store's one cache of decoded objects (paper
// §4.2.2): it holds the unpickled committed state of chain-free objects, so
// hot opens of stable objects (directories, index pages, records) skip the
// chunk store and the unpickling. Snapshot opens, 2PL read-only opens and
// prefetch all probe it; a probe loads the pointers of one set: no lock, no
// write to shared memory. Point reads' misses, commits and 2PL prefetches
// put their objects, which may evict. A snapshot scan's prefetch only
// offers its batch (versionTable.memoize): a record is admitted at zero
// credit, and only into room the budget has spare, so a scan reuses the
// table but never evicts the index pages and directories other readers
// reuse. The batch itself goes to the scanning transaction's memo.
//
// Soundness: entries exist only for objects with no version chain. stage
// clears an object's slot before it installs the chain, and runs before the
// chunk-store merge and before publish advances the stamp. put and offer
// run only from decodedPut and memoize, which re-check the no-chain
// condition under versionTable.decodedMu — every chain insert and delete
// holds it too, so the chain map cannot change under the check — while
// their caller's pin keeps any racing chain alive, and from publish, which
// re-seats a committing writer's instance in the same locked section that
// drops its chain. So an entry a probe can load is the state every live and
// every future pin must see. memoize's pin is the snapshot's own: a commit
// after it that touched an object staged its chain before it merged, and
// reclaimLocked keeps that chain while the pin lives, so no chain after the
// read means the bytes read are the object's state at the pin, and its
// latest.
//
// Replacement is size-aware (GreedyDual-Size, Cao & Irani 1997): every miss
// costs about one chunk read whatever the object's size, so per byte of
// budget a small object — a hash bucket, a B-tree node — saves more reads
// than a record. put gives each entry a lap credit, the table's mean
// resident size over the entry's size, capped at decodedMaxCredit; the sweep
// hand spends one credit each time it passes an entry and evicts only at
// zero, and a full set evicts its least-credited way. Credits live on the
// writer side, so a hit still writes nothing: a hit (reference) bit, as
// CLOCK keeps, would make every probe a store to shared memory. Admission
// is not filtered either: protecting re-missed objects behind a ghost list
// did not move the cold-read benchmark. The hand's worst case is a table
// whose every entry holds the full credit: one put then walks at most
// decodedMaxCredit+1 laps of the slots before an entry reaches zero.
//
// Objects handed out are shared across transactions: objects opened
// read-only must not be mutated (Config.ReadonlyChecks catches violations),
// and writable opens work on a private copy.

const (
	// decodedBudget bounds the table's resident pickled bytes. It is a
	// constant outside the location map's CacheBytes pool, which has a
	// single owner (the chunk store) so that no layer evicts another's
	// entries.
	decodedBudget = 8 << 20
	// decodedMaxEntry is the largest object admitted: a bigger one would
	// push out an eighth of the cache or more for a single entry.
	decodedMaxEntry = decodedBudget / 8
	// Geometry: an object id maps to one set of decodedWays slots — eight
	// pointers, one cache line.
	decodedSetBits = 12
	decodedWays    = 8
	// decodedMaxCredit caps the laps of the sweep hand an entry survives.
	decodedMaxCredit = 7
)

// decodedEntry is one cached object; immutable once published in a slot.
type decodedEntry struct {
	oid  ObjectID
	obj  Object
	size int64
}

// decodedTable is the set-associative table. get is safe from any goroutine
// with no lock held; put and remove, and the fields below slots, belong to
// the writer side, which holds versionTable.decodedMu.
type decodedTable struct {
	slots  [decodedWays << decodedSetBits]atomic.Pointer[decodedEntry]
	credit [decodedWays << decodedSetBits]uint8 // laps left to each slot's entry
	bytes  int64                                // resident pickled size, never above decodedBudget
	count  int                                  // occupied slots
	hand   int                                  // budget-eviction sweep position over slots
	tick   int                                  // rotates the first way a full set considers
}

// set returns the index of the first of the slots oid maps to. Object ids
// are chunk ids handed out mostly in sequence; the multiplicative hash
// spreads runs over the sets.
func (dt *decodedTable) set(oid ObjectID) int {
	return int(uint64(oid)*0x9E3779B97F4A7C15>>(64-decodedSetBits)) * decodedWays
}

// get returns the cached object for oid, or nil.
func (dt *decodedTable) get(oid ObjectID) Object {
	s := dt.set(oid)
	set := dt.slots[s : s+decodedWays]
	for i := range set {
		if e := set[i].Load(); e != nil && e.oid == oid {
			return e.obj
		}
	}
	return nil
}

// remove clears oid's slot, if it has one.
func (dt *decodedTable) remove(oid ObjectID) {
	set := dt.set(oid)
	for i := set; i < set+decodedWays; i++ {
		if e := dt.slots[i].Load(); e != nil && e.oid == oid {
			dt.evict(i)
			return
		}
	}
}

// evict empties slot i.
func (dt *decodedTable) evict(i int) {
	if e := dt.slots[i].Swap(nil); e != nil {
		dt.bytes -= e.size
		dt.count--
	}
	dt.credit[i] = 0
}

// put caches obj for oid, replacing any entry oid already has. When the byte
// budget is short the sweep hand walks the slots in table order — ids being
// hashed, an arbitrary order — spending one credit of each entry it passes
// and evicting the entries it finds at zero, until the new entry fits; it
// passes empty slots without touching them. A
// full set evicts its least-credited way, the first found from a rotating
// start.
func (dt *decodedTable) put(oid ObjectID, obj Object, size int64) {
	dt.remove(oid)
	if size > decodedMaxEntry {
		return
	}
	for dt.bytes+size > decodedBudget {
		switch {
		case dt.slots[dt.hand].Load() == nil:
			// Empty: nothing to spend or evict, and no shared write.
		case dt.credit[dt.hand] > 0:
			dt.credit[dt.hand]--
		default:
			dt.evict(dt.hand)
		}
		dt.hand = (dt.hand + 1) % len(dt.slots)
	}
	set := dt.set(oid)
	way := -1
	for i := set; i < set+decodedWays; i++ {
		if dt.slots[i].Load() == nil {
			way = i
			break
		}
	}
	if way < 0 {
		dt.tick++
		for j := range decodedWays {
			i := set + (dt.tick+j)%decodedWays
			if way < 0 || dt.credit[i] < dt.credit[way] {
				way = i
			}
		}
		dt.evict(way)
	}
	dt.slots[way].Store(&decodedEntry{oid: oid, obj: obj, size: size})
	dt.bytes += size
	dt.count++
	dt.credit[way] = uint8(min(decodedMaxCredit, dt.bytes/int64(dt.count)/max(size, 1)))
}

// offer caches obj for oid at zero credit, so it is the first to go when a
// put needs room, and only if oid has no entry and the budget and oid's set
// have room: it evicts nothing.
func (dt *decodedTable) offer(oid ObjectID, obj Object, size int64) {
	if size > decodedMaxEntry || dt.bytes+size > decodedBudget || dt.get(oid) != nil {
		return
	}
	set := dt.set(oid)
	for i := set; i < set+decodedWays; i++ {
		if dt.slots[i].Load() == nil {
			dt.slots[i].Store(&decodedEntry{oid: oid, obj: obj, size: size})
			dt.bytes += size
			dt.count++
			dt.credit[i] = 0
			return
		}
	}
}

// resident counts the occupied slots and sums their sizes. The caller holds
// versionTable.decodedMu so the count agrees with bytes.
func (dt *decodedTable) resident() (n int, bytes int64) {
	for i := range dt.slots {
		if e := dt.slots[i].Load(); e != nil {
			n++
			bytes += e.size
		}
	}
	return n, bytes
}
