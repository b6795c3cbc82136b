package chunkstore

import (
	"errors"
	"fmt"

	"tdb/internal/sec"
)

// locMap is the hierarchical location map (paper §3.2.1): a radix tree over
// chunk ids whose nodes are themselves chunks written to the log at
// checkpoints. Every entry carries a one-way hash of what it points to, so
// the map doubles as the Merkle tree that authenticates the whole database.
//
// The resident nodes are the trusted cache of verified state (§4.2.2),
// bounded by a CLOCK ring: ring holds every resident node, used their
// accounted bytes, budget the bound (Config.CacheBytes), and hand the next
// slot the sweep examines. The ring is mutated only under the store mutex
// held exclusively; readers holding it shared only set reference bits.
type locMap struct {
	cs     *Store
	fanout int
	root   *mapNode
	// height is the root's level; the tree covers fanout^(height+1) ids.
	height int

	ring   []*mapNode
	hand   int
	used   int64
	budget int64
}

// span returns the number of chunk ids covered by one node at level.
func (m *locMap) span(level int) uint64 {
	s := uint64(m.fanout)
	for i := 0; i < level; i++ {
		s *= uint64(m.fanout)
	}
	return s
}

// capacity returns the number of ids the current tree covers.
func (m *locMap) capacity() uint64 { return m.span(m.height) }

// childIndex returns which slot of a level-l node covers cid.
func (m *locMap) childIndex(cid ChunkID, level int) int {
	div := uint64(1)
	for i := 0; i < level; i++ {
		div *= uint64(m.fanout)
	}
	return int((uint64(cid) / div) % uint64(m.fanout))
}

// newLocMap creates an empty map with a single leaf root.
func newLocMap(cs *Store, fanout int) *locMap {
	m := &locMap{cs: cs, fanout: fanout, budget: cs.cfg.CacheBytes}
	m.root = newMapNode(0, 0, fanout)
	m.registerNode(m.root)
	return m
}

// registerNode makes n resident and sweeps the ring back under budget,
// sparing n itself: the caller is about to use it, and evicting it midway
// would hand back a node the map no longer tracks.
func (m *locMap) registerNode(n *mapNode) {
	n.slot = len(m.ring)
	m.ring = append(m.ring, n)
	m.used += n.memSize(m.cs.suite.HashSize())
	m.sweep(n)
}

// unregisterNode drops n from the ring without evicting it (a clone
// replaced it). Dropping a node that is not resident is a no-op.
func (m *locMap) unregisterNode(n *mapNode) {
	if n.slot < len(m.ring) && m.ring[n.slot] == n {
		m.removeSlot(n.slot)
	}
}

// removeSlot unaccounts the node at ring slot i, moving the last node into
// the slot.
func (m *locMap) removeSlot(i int) {
	m.used -= m.ring[i].memSize(m.cs.suite.HashSize())
	last := len(m.ring) - 1
	m.ring[i] = m.ring[last]
	m.ring[i].slot = i
	m.ring[last] = nil
	m.ring = m.ring[:last]
}

// sweepLimit bounds how many ring slots one sweep examines. When the ring
// is dominated by unevictable residents (dirty nodes, nodes with cached
// children), an unbounded sweep would revisit every vetoing node on every
// registration — O(n²) overall. A bounded sweep keeps registration O(1)
// amortized; the cache temporarily exceeds its budget instead, which is the
// only sound choice when residents cannot be dropped.
const sweepLimit = 64

// sweep runs the CLOCK hand until the cache fits its budget (if it has
// one) or sweepLimit slots have been examined. A referenced node loses its
// bit and survives the pass (its second chance); a node evict vetoes, and
// keep, are passed over; anything else is evicted, and the slot is examined
// again since removeSlot moved another node into it.
func (m *locMap) sweep(keep *mapNode) {
	for examined := 0; examined < sweepLimit && m.budget >= 0 && m.used > m.budget && len(m.ring) > 0; examined++ {
		if m.hand >= len(m.ring) {
			m.hand = 0
		}
		n := m.ring[m.hand]
		switch {
		case n == keep:
		case n.ref.Load():
			n.ref.Store(false)
		case m.evict(n):
			m.removeSlot(m.hand)
			continue
		}
		m.hand++
	}
}

// evict drops a clean, childless, non-root node from the current tree,
// returning false to veto. The dirty-node veto is load-bearing for commit
// atomicity: a path pin made resident stays so until the commit that
// pinned it has applied (setPinned).
func (m *locMap) evict(n *mapNode) bool {
	if n.dirty || n.kidCount > 0 || n == m.root {
		return false
	}
	// Find the node's parent in the current tree. If the node is no longer
	// part of the current tree (cloned away by a snapshot), just let it go.
	parent := m.findParent(n)
	if parent != nil {
		idx := m.childIndex(ChunkID(n.index*m.span(n.level)), n.level+1)
		if parent.kids[idx] == n {
			parent.kids[idx] = nil
			parent.kidCount--
		}
	}
	return true
}

// findParent descends from the root toward the node's position and returns
// the would-be parent if the node is reachable, nil otherwise. Only cached
// links are followed (no I/O).
func (m *locMap) findParent(n *mapNode) *mapNode {
	if n.level >= m.height {
		return nil
	}
	cid := ChunkID(n.index * m.span(n.level))
	cur := m.root
	for cur != nil && cur.level > n.level+1 {
		cur = cur.kids[m.childIndex(cid, cur.level)]
	}
	if cur == nil || cur.level != n.level+1 {
		return nil
	}
	return cur
}

// grow adds root levels until the tree covers cid.
func (m *locMap) grow(cid ChunkID) {
	for uint64(cid) >= m.capacity() {
		old := m.root
		newRoot := newMapNode(old.level+1, 0, m.fanout)
		newRoot.kids[0] = old
		newRoot.kidCount = 1
		newRoot.entries[0] = entry{loc: old.loc, hash: m.nodeHash(old)}
		m.root = newRoot
		m.height = newRoot.level
		m.registerNode(newRoot)
	}
}

// nodeHash returns the node's memoized content hash, recomputing it (and,
// for inner nodes, its dirty descendants' hashes) as needed.
//
//tdblint:serial locMap hashing runs under the store mutex by design; node hashes are small and memoized, unlike bulk payload crypto
func (m *locMap) nodeHash(n *mapNode) []byte {
	if !n.hashStale && n.hash != nil {
		return n.hash
	}
	if n.level > 0 {
		for i, kid := range n.kids {
			if kid != nil && kid.hashStale {
				e := entry{loc: kid.loc, hash: m.nodeHash(kid)}
				if e.loc != n.entries[i].loc || !sec.HashEqual(e.hash, n.entries[i].hash) {
					n.entries[i] = e
					n.dirty = true
				}
			}
		}
	}
	n.hash = m.cs.suite.Hash(n.serialize())
	n.hashStale = false
	return n.hash
}

// rootHash returns the Merkle root over the entire database.
//
//tdblint:public the Merkle root is the published tamper-evidence commitment — a one-way digest, MACed wherever it is persisted, never secret
func (m *locMap) rootHash() []byte { return m.nodeHash(m.root) }

// loadChild loads the child node at slot i of parent from the log,
// verifying its content hash against the parent entry. The caller must have
// checked that the entry is non-empty.
//
//tdblint:serial locMap paging faults map nodes in under the store mutex by design; the map is a shared index, not bulk chunk I/O
func (m *locMap) loadChild(parent *mapNode, i int) (*mapNode, error) {
	e := parent.entries[i]
	if e.loc.IsZero() {
		return nil, fmt.Errorf("%w: map node entry %d of (%d,%d) has no stored location",
			ErrTampered, i, parent.level, parent.index)
	}
	typ, body, err := m.cs.segs.readRecord(e.loc)
	if err != nil {
		return nil, err
	}
	if typ != recMapNode {
		return nil, fmt.Errorf("%w: expected map node record at %v, found type %d", ErrTampered, e.loc, typ)
	}
	level, index, ciphertext, err := parseMapNodeRecord(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	plain, err := m.cs.suite.Decrypt(ciphertext)
	if err != nil {
		return nil, fmt.Errorf("%w: decrypting map node at %v: %v", ErrTampered, e.loc, err)
	}
	if !sec.HashEqual(m.cs.suite.Hash(plain), e.hash) {
		return nil, fmt.Errorf("%w: map node at %v fails hash validation", ErrTampered, e.loc)
	}
	n, err := deserializeMapNode(plain, m.fanout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	wantLevel, wantIndex := parent.level-1, parent.index*uint64(m.fanout)+uint64(i)
	if n.level != wantLevel || n.index != wantIndex || level != wantLevel || index != wantIndex {
		return nil, fmt.Errorf("%w: map node at %v has position (%d,%d), want (%d,%d)",
			ErrTampered, e.loc, n.level, n.index, wantLevel, wantIndex)
	}
	n.loc = e.loc
	n.hash = append([]byte(nil), e.hash...)
	n.hashStale = false
	// A node paged in under a node a snapshot shares is the snapshot's as
	// much as the current tree's: a write must copy it, not change it in
	// place under the snapshot.
	n.shared = parent.shared
	parent.kids[i] = n
	parent.kidCount++
	m.registerNode(n)
	return n, nil
}

// pathResult is the outcome of descending toward a cid: the node at the
// level descended to that covers it, and the slot in that node that does.
type pathResult struct {
	node *mapNode
	slot int
}

// descendMode says what descend does to the path it walks.
type descendMode int

const (
	// readPath changes nothing; a missing node yields a nil one.
	readPath descendMode = iota
	// pinPath clones the stored nodes of the path that a snapshot shares
	// (copy-on-write) and marks them dirty, so eviction cannot drop them;
	// a missing node yields a nil one. The tree's shape, and so its root
	// hash, does not change.
	pinPath
	// writePath is pinPath that also creates missing nodes, growing the
	// tree when cid lies beyond it.
	writePath
)

// descend walks from the root to the node at level that covers cid (level 0
// is the leaf), faulting in the stored nodes it needs.
func (m *locMap) descend(cid ChunkID, level int, mode descendMode) (pathResult, error) {
	if uint64(cid) >= m.capacity() {
		if mode != writePath {
			return pathResult{}, nil
		}
		m.grow(cid)
	}
	if mode != readPath && m.root.shared {
		m.unshare(&m.root)
	}
	n := m.root
	for {
		if mode != readPath {
			n.hashStale = true
			n.dirty = true
		}
		if n.level == level {
			return pathResult{node: n, slot: m.childIndex(cid, level)}, nil
		}
		i := m.childIndex(cid, n.level)
		kid := n.kids[i]
		if kid == nil {
			if n.entries[i].isEmpty() {
				if mode != writePath {
					return pathResult{}, nil
				}
				kid = newMapNode(n.level-1, n.index*uint64(m.fanout)+uint64(i), m.fanout)
				n.kids[i] = kid
				n.kidCount++
				m.registerNode(kid)
			} else {
				var err error
				kid, err = m.loadChild(n, i)
				if err != nil {
					return pathResult{}, err
				}
			}
		}
		if mode != readPath && kid.shared {
			kid = m.unshare(&n.kids[i])
		}
		kid.touch()
		n = kid
	}
}

// getCached returns the leaf entry for cid walking only nodes already
// resident in memory: no I/O, and no mutation but the reference bits of the
// nodes it walks. It reports resident=false when the path to the leaf is
// not fully cached (the caller must fall back to get under the exclusive
// lock, which faults nodes in). A nil child with an empty parent entry — or
// a cid beyond the tree's capacity — is a definitive absence, not a cache
// miss.
//
// Safe under the store mutex in shared (read-locked) mode: every tree
// mutation — node creation, paging, eviction, entry updates, hash
// memoization — runs under the exclusive lock, entries are replaced
// wholesale (their hash slices are never mutated in place), and the
// reference bit is atomic.
func (m *locMap) getCached(cid ChunkID) (e entry, resident bool) {
	if uint64(cid) >= m.capacity() {
		return entry{}, true
	}
	n := m.root
	for n.level > 0 {
		i := m.childIndex(cid, n.level)
		kid := n.kids[i]
		if kid == nil {
			if n.entries[i].isEmpty() {
				return entry{}, true
			}
			return entry{}, false
		}
		kid.touch()
		n = kid
	}
	return n.entries[m.childIndex(cid, 0)], true
}

// get returns the leaf entry for cid (a zero entry if absent).
func (m *locMap) get(cid ChunkID) (entry, error) {
	p, err := m.descend(cid, 0, readPath)
	if err != nil {
		return entry{}, err
	}
	if p.node == nil {
		return entry{}, nil
	}
	return p.node.entries[p.slot], nil
}

// set updates the leaf entry for cid and returns the previous entry.
func (m *locMap) set(cid ChunkID, e entry) (entry, error) {
	p, err := m.descend(cid, 0, writePath)
	if err != nil {
		return entry{}, err
	}
	old := p.node.entries[p.slot]
	p.node.entries[p.slot] = e
	return old, nil
}

// clear removes the leaf entry for cid, returning the previous entry.
func (m *locMap) clear(cid ChunkID) (entry, error) {
	return m.set(cid, entry{})
}

// pin faults in the stored nodes of cid's path and leaves them resident,
// private and dirty (pinPath), without changing the map: the fallible half
// of a set, which commits and the cleaner run before their first mutation.
func (m *locMap) pin(cid ChunkID) error {
	_, err := m.descend(cid, 0, pinPath)
	return err
}

// setPinned is set for a chunk whose path pin made resident, with no
// checkpoint or snapshot since: dirty nodes are never evicted and private
// ones never cloned, so the descent only walks and creates nodes and cannot
// fail. An error here would mean that invariant is broken, a bug, not a
// runtime condition.
func (m *locMap) setPinned(cid ChunkID, e entry) entry {
	old, err := m.set(cid, e)
	if err != nil {
		panic(fmt.Sprintf("chunkstore: pinned path of chunk %d hit I/O: %v", cid, err))
	}
	return old
}

// setShared sets the shared flag of every resident node of the current
// tree: true freezes them for a snapshot, so later mutations clone; false,
// once the last open snapshot has closed, lets them be written in place
// again.
func (m *locMap) setShared(shared bool) {
	var walk func(n *mapNode)
	walk = func(n *mapNode) {
		n.shared = shared
		for _, kid := range n.kids {
			if kid != nil {
				walk(kid)
			}
		}
	}
	walk(m.root)
}

// unshare replaces the node a snapshot shares at *slot, the root pointer or
// a parent's child pointer, with a private copy, and returns the copy. The
// copy is in the tree before it joins the cache, so the sweep that
// registering it may run evicts its children from the copy, not from the
// snapshot's node.
func (m *locMap) unshare(slot **mapNode) *mapNode {
	n := *slot
	*slot = n.clone()
	m.unregisterNode(n)
	m.registerNode(*slot)
	return *slot
}

// dirtyNodes returns all nodes the next checkpoint must write, in
// post-order (children before parents). A node needs writing when its own
// content changed or when any cached descendant does: writing the
// descendant changes its stored location, which changes this node's
// serialization too. The walk propagates dirtiness upward so ancestors are
// never skipped (skipping one would leave its stored copy pointing at a
// stale child location).
//
// A node a snapshot shares is replaced by a private copy, as a write
// replaces it, so the checkpoint moves only the copy. Every node a snapshot
// holds therefore stays where it was stored when the snapshot was taken, at
// or below the snapshot's tail segment, which the cleaner never takes while
// the snapshot is open.
func (m *locMap) dirtyNodes() []*mapNode {
	var mark func(n *mapNode) bool
	mark = func(n *mapNode) bool {
		for _, kid := range n.kids {
			if kid != nil && mark(kid) {
				n.dirty = true
				n.hashStale = true
			}
		}
		return n.dirty
	}
	if !mark(m.root) {
		return nil
	}
	var out []*mapNode
	var collect func(n *mapNode)
	collect = func(n *mapNode) {
		for i, kid := range n.kids {
			if kid != nil && kid.dirty {
				if kid.shared {
					kid = m.unshare(&n.kids[i])
				}
				collect(kid)
			}
		}
		out = append(out, n)
	}
	if m.root.shared {
		m.unshare(&m.root)
	}
	collect(m.root)
	return out
}

// forEachEntry invokes fn for every non-empty leaf entry reachable from
// root, ascending, loading nodes (and verifying hashes) as needed, under
// s.mu held exclusively or during Open: recovery's chunk count and the
// cleaner's evacuation of a damaged segment.
func (m *locMap) forEachEntry(root *mapNode, fn func(cid ChunkID, e entry) error) error {
	c := mapCursor{roots: [2]*mapNode{root}}
	for {
		leaves, _, err := c.leafLocked(m, true)
		if err != nil || c.done {
			return err
		}
		for k, e := range leaves[0].entries {
			if e.isEmpty() {
				continue
			}
			if err := fn(ChunkID(c.cursor-uint64(m.fanout)+uint64(k)), e); err != nil {
				return err
			}
		}
	}
}

// mapCursor walks map trees in chunk-id order from a cursor, a leaf per
// step: a step descends from the roots to the first leaf at or after the
// cursor that has work (wanted) and moves the cursor past it, so no node is
// held between steps, when eviction may unlink one. Two roots, the first
// at least as tall, walk the chunks whose entries differ between them.
type mapCursor struct {
	roots [2]*mapNode
	// damage, when set, collects the subtrees that fail to load, which the
	// walk then moves past; otherwise such a failure ends it.
	damage *[]string
	cursor uint64
	done   bool
}

// leafLocked runs one step and returns each root's leaf (nil where a root
// has none). Holding s.mu shared, it reports fault at a map node that is
// not resident; holding it exclusively, it loads the node.
func (c *mapCursor) leafLocked(m *locMap, exclusive bool) (nodes [2]*mapNode, fault bool, err error) {
	fanout := uint64(m.fanout)
restart:
	for c.cursor < m.span(c.roots[0].level) {
		nodes = c.roots
		for level := nodes[0].level; level > 0; level-- {
			slotSpan := m.span(level - 1)
			start := c.cursor - c.cursor%(slotSpan*fanout)
			j := int((c.cursor - start) / slotSpan)
			k := j
			for k < m.fanout && !wanted(nodes, k) {
				k++
			}
			if k > j {
				c.cursor = start + uint64(k)*slotSpan
			}
			if k == m.fanout {
				continue restart
			}
			for i, n := range nodes {
				if n == nil || n.kids[k] != nil || n.entries[k].isEmpty() {
					if n != nil {
						nodes[i] = n.kids[k]
					}
					continue
				}
				if !exclusive {
					return nodes, true, nil
				}
				if nodes[i], err = m.loadChild(n, k); err != nil {
					if c.damage == nil || errors.Is(err, ErrIO) {
						return nodes, false, err
					}
					*c.damage = append(*c.damage, fmt.Sprintf("map node (%d,%d) slot %d at %v: %v", n.level, n.index, k, n.entries[k].loc, err))
					c.cursor = start + uint64(k+1)*slotSpan
					continue restart
				}
			}
		}
		c.cursor += fanout
		return nodes, false, nil
	}
	c.done = true
	return nodes, false, nil
}

// wanted reports whether slot k of the nodes holds work for a walk: a
// subtree or chunk on either side that does not hash the same on both.
func wanted(nodes [2]*mapNode, k int) bool {
	var e [2]entry
	present := false
	for i, n := range nodes {
		if n != nil {
			e[i] = n.entries[k]
			present = present || !e[i].isEmpty() || n.level > 0 && n.kids[k] != nil
		}
	}
	return present && (e[0].isEmpty() || e[1].isEmpty() || !sec.HashEqual(e[0].hash, e[1].hash))
}
