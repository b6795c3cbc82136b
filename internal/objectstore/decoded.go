package objectstore

import "sync/atomic"

// The decode table is the object store's one cache of decoded objects (paper
// §4.2.2): it holds the unpickled committed state of chain-free objects, so
// hot opens of stable objects (directories, index pages, records) skip the
// chunk store and the unpickling. Snapshot opens, 2PL read-only opens and
// prefetch all probe it; a probe loads the pointers of one set: no lock, no
// write to shared memory.
//
// Soundness: entries exist only for objects with no version chain. stage
// clears an object's slot before it installs the chain, and runs before the
// chunk-store merge and before publish advances the stamp. put runs only from
// decodedPut, which re-checks the no-chain condition under the table's write
// lock while its caller's pin keeps any racing chain alive, and from publish,
// which re-seats a committing writer's instance in the same locked section
// that drops its chain. So an entry a probe can load is the state every live
// and every future pin must see.
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
)

// decodedEntry is one cached object; immutable once published in a slot.
type decodedEntry struct {
	oid  ObjectID
	obj  Object
	size int64
}

// decodedTable is the set-associative table. get is safe from any goroutine
// with no lock held; put and remove, and the fields below slots, belong to
// the writer side, which holds versionTable.mu exclusively.
type decodedTable struct {
	slots [decodedWays << decodedSetBits]atomic.Pointer[decodedEntry]
	bytes int64 // resident pickled size, never above decodedBudget
	hand  int   // budget-eviction sweep position over slots
	tick  int   // rotates the victim way of a full set
}

// set returns the slots oid maps to. Object ids are chunk ids handed out
// mostly in sequence; the multiplicative hash spreads runs over the sets.
func (dt *decodedTable) set(oid ObjectID) []atomic.Pointer[decodedEntry] {
	s := int(uint64(oid) * 0x9E3779B97F4A7C15 >> (64 - decodedSetBits))
	return dt.slots[s*decodedWays : (s+1)*decodedWays]
}

// get returns the cached object for oid, or nil.
func (dt *decodedTable) get(oid ObjectID) Object {
	set := dt.set(oid)
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
	for i := range set {
		if e := set[i].Load(); e != nil && e.oid == oid {
			dt.evict(&set[i])
			return
		}
	}
}

// evict empties a slot.
func (dt *decodedTable) evict(slot *atomic.Pointer[decodedEntry]) {
	if e := slot.Swap(nil); e != nil {
		dt.bytes -= e.size
	}
}

// put caches obj for oid, replacing any entry oid already has. Replacement
// has no recency (a hit records nothing): when the byte budget is short a
// sweep hand empties slots in table order — ids being hashed, an arbitrary
// order — until the entry fits, and within a full set the victim way rotates.
func (dt *decodedTable) put(oid ObjectID, obj Object, size int64) {
	dt.remove(oid)
	if size > decodedMaxEntry {
		return
	}
	for dt.bytes+size > decodedBudget {
		dt.evict(&dt.slots[dt.hand])
		dt.hand = (dt.hand + 1) % len(dt.slots)
	}
	set := dt.set(oid)
	way := dt.tick % decodedWays
	for i := range set {
		if set[i].Load() == nil {
			way = i
			break
		}
	}
	if set[way].Load() != nil {
		dt.tick++
		dt.evict(&set[way])
	}
	set[way].Store(&decodedEntry{oid: oid, obj: obj, size: size})
	dt.bytes += size
}

// resident counts the occupied slots and sums their sizes. The caller holds
// versionTable.mu (shared suffices) so the count agrees with bytes.
func (dt *decodedTable) resident() (n int, bytes int64) {
	for i := range dt.slots {
		if e := dt.slots[i].Load(); e != nil {
			n++
			bytes += e.size
		}
	}
	return n, bytes
}
