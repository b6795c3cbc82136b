package objectstore

import (
	"sync"
	"sync/atomic"
)

// Multi-version snapshot reads. Read-write transactions keep the paper's
// strict 2PL (§4.1); read-only transactions instead pin a commit stamp at
// BeginReadOnly and resolve every object against a per-object version
// chain, so they never take a lock-table entry, never block on a writer,
// and never abort with ErrLockTimeout.
//
// The protocol has one load-bearing ordering rule: a committing writer
// STAGES its new versions (plus, for a chain created on demand, the
// committed pre-image as a baseline) before the chunk store merges the
// batch, and PUBLISHES them — assigning the commit stamp — only after the
// merge. A reader that finds no chain for an object falls back to the
// chunk store and then re-checks the table: if a racing commit merged
// ahead of the read, its staged chain is guaranteed to be visible by then
// and carries the pre-image the reader needs. Retired versions are
// reclaimed once no reader pins a stamp that can still see them.

// version is one committed (or staged) state of an object.
type version struct {
	// stamp is the publish stamp this version became visible at. Stamp 0
	// marks the baseline: the state committed before every stamp the table
	// currently tracks.
	stamp uint64
	// data is the pickled object state; nil when !present.
	data []byte
	// present is false when the object did not exist at this version
	// (staged removal, or the baseline of a fresh insert).
	present bool
}

// verChain is the version history of one object: published versions in
// ascending stamp order, plus at most one staged-but-unpublished version
// (the strict 2PL exclusive lock admits one committing writer per object).
type verChain struct {
	vers []version
	pend []version
}

// versionTable is the store-wide multi-version state.
//
// Lock order: Store.mu → versionTable.mu → versionTable.decodedMu →
// versionTable.pinMu. Readers probe the decode table with no lock at all,
// resolve chains under mu.RLock — or with no lock while nchains is zero — and
// must not reach the chunk store while holding mu. Every chain-map insert
// and delete holds mu exclusively and decodedMu, so holding either freezes
// the map; the decode table's writer side holds decodedMu alone, so a miss
// caching its decode never takes mu. pinMu is a leaf protecting only the pin
// counts so unpinning never contends with resolution.
type versionTable struct {
	mu sync.RWMutex
	// stamp is the last published commit stamp; it advances by one for
	// every commit that changes object state, in publish order (which the
	// group-commit pipeline keeps aligned with chunk-store merge order per
	// object, via the exclusive locks held until publish).
	stamp uint64
	// chains holds version history per object; an object with no chain is
	// at its latest committed state in the chunk store.
	chains map[ObjectID]*verChain
	// nchains is len(chains), changed only with mu and decodedMu both held.
	// At zero, resolve and prefetchFilter skip mu: stage raises the count
	// before the chunk-store merge, so a reader whose chunk read observed a
	// merge observes the raise too.
	nchains atomic.Int64
	// rootOID mirrors the committed root pointer so BeginReadOnly can
	// capture pin + root under one read lock.
	rootOID ObjectID

	// decodedMu guards the writer side of decoded, the unpickled committed
	// state of chain-free objects (see decodedTable); probes take no lock.
	decodedMu sync.Mutex
	decoded   decodedTable

	pinMu sync.Mutex
	// pins counts active read-only transactions per pinned stamp.
	pins map[uint64]int
}

func newVersionTable() *versionTable {
	return &versionTable{
		chains: make(map[ObjectID]*verChain),
		pins:   make(map[uint64]int),
	}
}

// noPin is the minPin value when no reader is active: every version up to
// the latest published one is reclaimable.
const noPin = ^uint64(0)

// minPinLocked computes the smallest pinned stamp. Caller holds pinMu.
func (vt *versionTable) minPinLocked() uint64 {
	min := uint64(noPin)
	for s := range vt.pins {
		if s < min {
			min = s
		}
	}
	return min
}

// minPin reads the smallest pinned stamp.
func (vt *versionTable) minPin() uint64 {
	vt.pinMu.Lock()
	defer vt.pinMu.Unlock()
	return vt.minPinLocked()
}

// pin captures the current stamp and root pointer and registers the pin.
// Registration happens while still holding the read lock: a publish (and
// its reclamation sweep) excludes the whole sequence, so the sweep can
// never retire a version between a reader observing the stamp and the pin
// becoming visible.
func (vt *versionTable) pin() (stamp uint64, root ObjectID) {
	vt.mu.RLock()
	stamp = vt.stamp
	root = vt.rootOID
	vt.pinMu.Lock()
	vt.pins[stamp]++
	vt.pinMu.Unlock()
	vt.mu.RUnlock()
	return stamp, root
}

// unpin drops a pin. Only the departure of the last pin at the oldest
// stamp advances the reclamation horizon, so only that unpin sweeps: any
// other unpin leaves minPin unchanged and a sweep would find nothing new.
// Unconditional sweeping made every read-only transaction end take the
// exclusive table lock, which serialized the whole snapshot read path at
// high reader counts.
func (vt *versionTable) unpin(stamp uint64) {
	vt.pinMu.Lock()
	vt.pins[stamp]--
	if vt.pins[stamp] <= 0 {
		delete(vt.pins, stamp)
	}
	advanced := vt.minPinLocked() > stamp
	vt.pinMu.Unlock()
	if advanced {
		vt.sweep()
	}
}

// stagedVersion is one object's contribution to a committing batch.
type stagedVersion struct {
	oid  ObjectID
	data []byte // pickled new state; nil for a removal
	// present is false for removals.
	present bool
	// pre is the committed pre-image (nil together with preExisted=false
	// for an insert), used as the baseline when a chain is created.
	pre        []byte
	preExisted bool
	// obj is the committing transaction's instance of data (nil for a
	// removal); publish re-seats it in the decode table when the chain drops.
	obj Object
}

// stage installs the batch's versions as pending, creating chains (with
// the committed pre-image as baseline) for objects that have none, after
// clearing each object's decode-table slot. It must run before the chunk
// store merges the batch: from this point readers resolving any touched
// object find a chain and stop falling back to the decode table or the chunk
// store, so the merge can never leak a too-new state into an older snapshot.
func (vt *versionTable) stage(staged []stagedVersion) {
	if len(staged) == 0 {
		return
	}
	vt.mu.Lock()
	defer vt.mu.Unlock()
	vt.decodedMu.Lock()
	defer vt.decodedMu.Unlock()
	for _, sv := range staged {
		vt.decoded.remove(sv.oid)
		c := vt.chains[sv.oid]
		if c == nil {
			c = &verChain{vers: []version{{stamp: 0, data: sv.pre, present: sv.preExisted}}}
			vt.chains[sv.oid] = c
			vt.nchains.Add(1)
		}
		c.pend = append(c.pend, version{data: sv.data, present: sv.present})
	}
}

// publish assigns the next commit stamp to the staged versions and updates
// the root mirror. It must run after the chunk store merged the batch.
// Newly retired versions on the touched chains are reclaimed in place; a
// written object whose chain drops here has no reader left that could see an
// older state, so its committed instance goes into the decode table and the
// writer's next open of it costs no chunk read. The committing transaction's
// references die at commit, so the instance is no longer mutated.
func (vt *versionTable) publish(staged []stagedVersion, rootSet bool, root ObjectID) {
	if len(staged) == 0 && !rootSet {
		return
	}
	vt.mu.Lock()
	defer vt.mu.Unlock()
	vt.decodedMu.Lock()
	defer vt.decodedMu.Unlock()
	vt.stamp++
	st := vt.stamp
	if rootSet {
		vt.rootOID = root
	}
	min := vt.minPin()
	for _, sv := range staged {
		c := vt.chains[sv.oid]
		if c == nil {
			continue // unstaged concurrently; cannot happen under 2PL
		}
		for i := range c.pend {
			c.pend[i].stamp = st
		}
		c.vers = append(c.vers, c.pend...)
		c.pend = nil
		vt.reclaimLocked(sv.oid, c, min)
		if sv.obj != nil && vt.chains[sv.oid] == nil {
			vt.decoded.put(sv.oid, sv.obj, int64(len(sv.data)))
		}
	}
}

// unstage discards the pending versions of a failed commit and reclaims
// chains that were created only for it.
func (vt *versionTable) unstage(staged []stagedVersion) {
	if len(staged) == 0 {
		return
	}
	vt.mu.Lock()
	defer vt.mu.Unlock()
	vt.decodedMu.Lock()
	defer vt.decodedMu.Unlock()
	min := vt.minPin()
	for _, sv := range staged {
		if c := vt.chains[sv.oid]; c != nil {
			c.pend = nil
			vt.reclaimLocked(sv.oid, c, min)
		}
	}
}

// reclaimLocked retires versions no active reader can see. Versions older
// than the newest one at or below minPin are unreachable (every pin
// resolves to a version at least that new); when a single version at or
// below minPin remains with nothing staged, the chain equals the chunk
// store's committed state — merge-before-publish guarantees the store
// holds at least that version — and the whole chain is dropped, restoring
// the cheap no-chain fallback path. Caller holds vt.mu and vt.decodedMu.
func (vt *versionTable) reclaimLocked(oid ObjectID, c *verChain, minPin uint64) {
	keep := 0
	for i, v := range c.vers {
		if v.stamp <= minPin {
			keep = i
		}
	}
	if keep > 0 {
		c.vers = append(c.vers[:0], c.vers[keep:]...)
	}
	if len(c.pend) == 0 && len(c.vers) == 1 && c.vers[0].stamp <= minPin {
		delete(vt.chains, oid)
		vt.nchains.Add(-1)
	}
}

// sweep reclaims retired versions across all chains (run when the minimum
// pin advances). The chain count keeps the common read-mostly case —
// horizon advances, but no chains exist — off every table lock.
func (vt *versionTable) sweep() {
	if vt.nchains.Load() == 0 {
		return
	}
	vt.mu.Lock()
	defer vt.mu.Unlock()
	vt.decodedMu.Lock()
	defer vt.decodedMu.Unlock()
	min := vt.minPin()
	for oid, c := range vt.chains {
		vt.reclaimLocked(oid, c, min)
	}
}

// resolve returns the state of oid's version chain visible at pin. ok is
// false when the object has no chain (or, defensively, no version at or
// below pin): the caller reads the chunk store and re-checks. While no chain
// exists at all, resolve takes no lock.
func (vt *versionTable) resolve(oid ObjectID, pin uint64) (data []byte, present, ok bool) {
	if vt.nchains.Load() == 0 {
		return nil, false, false
	}
	vt.mu.RLock()
	defer vt.mu.RUnlock()
	c := vt.chains[oid]
	if c == nil {
		return nil, false, false
	}
	for i := len(c.vers) - 1; i >= 0; i-- {
		if v := c.vers[i]; v.stamp <= pin {
			return v.data, v.present, true
		}
	}
	return nil, false, false
}

// decodedPut caches an unpickled committed object for the no-chain path.
// The no-chain condition is re-checked under decodedMu, which every chain
// insert holds too: the caller decoded bytes it read without a lock, and a
// writer may have staged a newer state since. The caller's snapshot pin
// keeps any such chain alive (its baseline pre-image is visible to the pin),
// so chains[oid] == nil still proves the decode is the one committed state.
func (vt *versionTable) decodedPut(oid ObjectID, obj Object, size int64) {
	vt.decodedMu.Lock()
	defer vt.decodedMu.Unlock()
	if vt.chains[oid] == nil {
		vt.decoded.put(oid, obj, size)
	}
}

// decodedRemove evicts oid's decode-table entry.
func (vt *versionTable) decodedRemove(oid ObjectID) {
	vt.decodedMu.Lock()
	defer vt.decodedMu.Unlock()
	vt.decoded.remove(oid)
}

// decodedResidency reports the decode table's resident objects and bytes.
func (vt *versionTable) decodedResidency() (n int, bytes int64) {
	vt.decodedMu.Lock()
	defer vt.decodedMu.Unlock()
	return vt.decoded.resident()
}

// prefetchFilter returns the subset of oids a scan prefetch should pull
// from the chunk store, under one read-locked pass (no lock while no chain
// exists): objects with a version chain are skipped (they resolve from the
// table, and their committed chunk state may be newer than what a snapshot
// reader will see), as are objects whose committed decode is already cached.
// Duplicates and nil ids drop.
func (vt *versionTable) prefetchFilter(oids []ObjectID) []ObjectID {
	chained := vt.nchains.Load() != 0
	if chained {
		vt.mu.RLock()
		defer vt.mu.RUnlock()
	}
	out := make([]ObjectID, 0, len(oids))
	var seen map[ObjectID]struct{}
	for _, oid := range oids {
		if oid == NilObject {
			continue
		}
		if chained {
			if _, ok := vt.chains[oid]; ok {
				continue
			}
		}
		if vt.decoded.get(oid) != nil {
			continue
		}
		if seen == nil {
			seen = make(map[ObjectID]struct{}, len(oids))
		}
		if _, dup := seen[oid]; dup {
			continue
		}
		seen[oid] = struct{}{}
		out = append(out, oid)
	}
	return out
}

// chainCount reports the number of live version chains (tests and stats).
func (vt *versionTable) chainCount() int {
	return int(vt.nchains.Load())
}
