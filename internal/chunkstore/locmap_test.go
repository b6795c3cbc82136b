package chunkstore

import (
	"testing"

	"tdb/internal/sec"
)

// clockMap returns an empty location map over a null-suite store with the
// given map-node budget, for driving the CLOCK ring directly. Its root is a
// level-1 node; the leaves the tests register are clean orphans the root
// does not link, so nothing but the ring's own rules vetoes their eviction.
func clockMap(t *testing.T, budget int64) *locMap {
	t.Helper()
	suite, err := sec.NewSuite("null", []byte("clock"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	m := &locMap{cs: &Store{suite: suite}, fanout: 4, height: 1, budget: budget}
	m.root = newMapNode(1, 0, m.fanout)
	m.registerNode(m.root)
	return m
}

// leaf registers a clean, unreferenced orphan leaf.
func (m *locMap) leaf(index uint64) *mapNode {
	n := newMapNode(0, index, m.fanout)
	n.dirty = false
	m.registerNode(n)
	return n
}

func (m *locMap) resident(n *mapNode) bool {
	return n.slot < len(m.ring) && m.ring[n.slot] == n
}

// leafSize is the accounted size of one leaf of a clockMap.
func leafSize(m *locMap) int64 {
	return newMapNode(0, 0, m.fanout).memSize(m.cs.suite.HashSize())
}

// TestClockBudget: once the ring exceeds its budget, a sweep evicts an
// unreferenced node and spares a referenced one, clearing its bit.
func TestClockBudget(t *testing.T) {
	m := clockMap(t, 0)
	m.budget = m.used + 2*leafSize(m)
	a, b := m.leaf(1), m.leaf(2)
	if !m.resident(a) || !m.resident(b) {
		t.Fatal("premature eviction within budget")
	}
	a.touch()
	c := m.leaf(3)
	if !m.resident(a) || m.resident(b) || !m.resident(c) {
		t.Fatalf("resident a=%v b=%v c=%v, want b evicted", m.resident(a), m.resident(b), m.resident(c))
	}
	if a.ref.Load() {
		t.Fatal("the sweep passed a referenced node without clearing its bit")
	}
	if m.used != m.budget {
		t.Fatalf("used %d, want %d", m.used, m.budget)
	}
}

// TestClockSparesNodeBeingRegistered: a node larger than the whole budget
// survives its own registration (the caller is about to use it) and is
// evicted by the next one.
func TestClockSparesNodeBeingRegistered(t *testing.T) {
	m := clockMap(t, 0)
	m.budget = m.used + leafSize(m) - 1
	a := m.leaf(1)
	if !m.resident(a) {
		t.Fatal("node evicted by its own registration")
	}
	b := m.leaf(2)
	if m.resident(a) || !m.resident(b) {
		t.Fatalf("after registering b: a resident %v, b resident %v; want only b", m.resident(a), m.resident(b))
	}
	m.leaf(3)
	if m.resident(b) {
		t.Fatal("over-budget node survived the next registration")
	}
}

// TestClockVetoes: dirty nodes, nodes with cached children and the root are
// never evicted; the sweep passes over them and evicts what it may.
func TestClockVetoes(t *testing.T) {
	m := clockMap(t, 0)
	dirty := m.leaf(1)
	dirty.dirty = true
	parent := m.leaf(2)
	parent.kidCount = 1
	clean := m.leaf(3)
	m.budget = 1
	m.hand = 0
	m.sweep(nil)
	if !m.resident(m.root) || !m.resident(dirty) || !m.resident(parent) {
		t.Fatalf("vetoing node evicted: root %v, dirty %v, parent %v", m.resident(m.root), m.resident(dirty), m.resident(parent))
	}
	if m.resident(clean) {
		t.Fatal("evictable node survived a sweep over budget")
	}
	if len(m.ring) != 3 {
		t.Fatalf("ring holds %d nodes, want 3", len(m.ring))
	}
}

// TestClockUnregister: unregistering drops a node and its bytes without
// evicting it from its parent; a second unregister is a no-op.
func TestClockUnregister(t *testing.T) {
	m := clockMap(t, 1<<20)
	base := m.used
	a := m.leaf(1)
	b := m.leaf(2)
	m.unregisterNode(a)
	if m.resident(a) || !m.resident(b) || m.used != base+leafSize(m) {
		t.Fatalf("after unregister: a %v, b %v, used %d", m.resident(a), m.resident(b), m.used)
	}
	m.unregisterNode(a)
	if len(m.ring) != 2 || m.used != base+leafSize(m) {
		t.Fatalf("double unregister changed the ring: %d nodes, used %d", len(m.ring), m.used)
	}
}

// TestClockSweepBound: one sweep examines at most sweepLimit slots, so a
// ring dominated by vetoing nodes stays over budget for a pass rather than
// being rescanned whole; the hand resumes where it stopped.
func TestClockSweepBound(t *testing.T) {
	m := clockMap(t, 1<<20)
	for i := 0; i < sweepLimit+sweepLimit/2; i++ {
		m.leaf(uint64(i + 1)).dirty = true
	}
	victim := m.leaf(1000)
	m.budget = 1
	m.hand = 0
	m.sweep(nil)
	if !m.resident(victim) || m.hand != sweepLimit {
		t.Fatalf("after one sweep: victim resident %v, hand %d; want resident, hand %d", m.resident(victim), m.hand, sweepLimit)
	}
	m.sweep(nil)
	if m.resident(victim) {
		t.Fatal("second sweep did not reach the evictable node")
	}
}

// TestClockUnboundedBudget: a negative budget lifts the bound; nothing is
// ever evicted.
func TestClockUnboundedBudget(t *testing.T) {
	m := clockMap(t, -1)
	for i := 0; i < 100; i++ {
		m.leaf(uint64(i + 1))
	}
	if len(m.ring) != 101 {
		t.Fatalf("ring holds %d nodes, want 101", len(m.ring))
	}
}

// TestClockPromotesSharedReaders: a leaf reached only through getCached —
// the walk readers make holding the store mutex shared — has its reference
// bit set and survives the next sweep, which evicts an unreferenced
// sibling instead.
func TestClockPromotesSharedReaders(t *testing.T) {
	env := newTestEnv(t, "null")
	env.cfg.Fanout = 4
	s := env.open(t)
	defer s.Close()
	for i := 0; i < 16; i++ {
		allocWrite(t, s, []byte{byte(i)})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.lm
	p, err := m.descend(ChunkID(5), 0, readPath)
	if err != nil || p.node == nil {
		t.Fatalf("descend: %v", err)
	}
	hot := p.node
	var leaves []*mapNode
	for _, n := range m.ring {
		n.ref.Store(false)
		if n.level == 0 {
			leaves = append(leaves, n)
		}
	}
	if len(leaves) < 3 {
		t.Fatalf("%d resident leaves, want at least 3", len(leaves))
	}
	if _, resident := m.getCached(ChunkID(5)); !resident {
		t.Fatal("getCached: chunk 5's path not resident")
	}
	// Start the hand on the hot leaf and ask for exactly one eviction.
	m.hand = hot.slot
	m.budget = m.used - 1
	m.sweep(nil)
	if !m.resident(hot) {
		t.Fatal("the leaf shared-mode readers referenced was evicted")
	}
	evicted := 0
	for _, n := range leaves {
		if !m.resident(n) {
			evicted++
		}
	}
	if evicted != 1 {
		t.Fatalf("sweep evicted %d unreferenced leaves, want 1", evicted)
	}
}
