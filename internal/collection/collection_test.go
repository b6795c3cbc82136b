package collection

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tdb/internal/chunkstore"
	"tdb/internal/lru"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Meter reproduces the paper's Figure 7 schema: a meter with a unique id
// and usage counts, indexed by id (hash) and by total usage (B-tree).
type Meter struct {
	ID         int64
	ViewCount  int64
	PrintCount int64
}

const meterClass objectstore.ClassID = 3001

func (m *Meter) ClassID() objectstore.ClassID { return meterClass }
func (m *Meter) Pickle(p *objectstore.Pickler) {
	p.Int64(m.ID)
	p.Int64(m.ViewCount)
	p.Int64(m.PrintCount)
}
func (m *Meter) Unpickle(u *objectstore.Unpickler) error {
	m.ID = u.Int64()
	m.ViewCount = u.Int64()
	m.PrintCount = u.Int64()
	return u.Err()
}

// idIndexer is the paper's idIndexer: unique hash index on _id.
func idIndexer() GenericIndexer {
	return NewIndexer("id", true, HashTable, func(m *Meter) IntKey { return IntKey(m.ID) })
}

// countIndexer is the paper's countIndexer: non-unique B-tree over the
// derived total usage count — a functional index on a computed value.
func countIndexer() GenericIndexer {
	return NewIndexer("usage", false, BTree, func(m *Meter) IntKey { return IntKey(m.ViewCount + m.PrintCount) })
}

type colEnv struct {
	mem     *platform.MemStore
	counter *platform.MemCounter
	suite   sec.Suite
	pool    *lru.Pool
	reg     *objectstore.Registry
}

func newColEnv(t *testing.T) *colEnv {
	t.Helper()
	suite, err := sec.NewSuite("3des-sha1", []byte("collection-test-secret-012345678"))
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	reg := objectstore.NewRegistry()
	RegisterClasses(reg)
	reg.Register(meterClass, func() objectstore.Object { return &Meter{} })
	return &colEnv{
		mem:     platform.NewMemStore(),
		counter: platform.NewMemCounter(),
		suite:   suite,
		pool:    lru.NewPool(8 << 20),
		reg:     reg,
	}
}

func (e *colEnv) open(t *testing.T) *Store {
	t.Helper()
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:      e.mem,
		Counter:    e.counter,
		Suite:      e.suite,
		UseCounter: true,
		CachePool:  e.pool,
	})
	if err != nil {
		t.Fatalf("chunkstore.Open: %v", err)
	}
	os, err := objectstore.Open(objectstore.Config{
		Chunks:      cs,
		Registry:    e.reg,
		LockTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("objectstore.Open: %v", err)
	}
	s, err := NewStore(os)
	if err != nil {
		t.Fatalf("collection.NewStore: %v", err)
	}
	return s
}

// mustCreateProfile creates the Figure 7 "profile" collection with both
// indexes and n meters.
func mustCreateProfile(t *testing.T, s *Store, n int) {
	t.Helper()
	ct := s.Begin()
	h, err := ct.CreateCollection("profile", idIndexer(), countIndexer())
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := h.Insert(&Meter{ID: int64(i), ViewCount: int64(i % 10), PrintCount: int64(i % 3)}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestCreateInsertExactMatch(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 50)

	ct := s.Begin()
	defer ct.Abort()
	h, err := ct.ReadCollection("profile")
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	if h.Size() != 50 {
		t.Fatalf("Size: %d", h.Size())
	}
	it, err := h.QueryExact(idIndexer(), IntKey(17))
	if err != nil {
		t.Fatalf("QueryExact: %v", err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatal("no result for id 17")
	}
	m, err := ReadAs[*Meter](it)
	if err != nil {
		t.Fatalf("ReadAs: %v", err)
	}
	if m.ID != 17 {
		t.Fatalf("got meter %d", m.ID)
	}
	if it.Next() {
		t.Fatal("unique index returned multiple results")
	}
}

func TestScanCoversAll(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 120)

	ct := s.Begin()
	defer ct.Abort()
	h, _ := ct.ReadCollection("profile")
	it, err := h.Query(idIndexer())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer it.Close()
	seen := map[int64]bool{}
	for it.Next() {
		m, err := ReadAs[*Meter](it)
		if err != nil {
			t.Fatalf("ReadAs: %v", err)
		}
		if seen[m.ID] {
			t.Fatalf("meter %d enumerated twice", m.ID)
		}
		seen[m.ID] = true
	}
	if len(seen) != 120 {
		t.Fatalf("scan saw %d meters, want 120", len(seen))
	}
}

func TestBTreeRangeQueryOrdered(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 200)

	ct := s.Begin()
	defer ct.Abort()
	h, _ := ct.ReadCollection("profile")
	// Usage counts run 0..11 (i%10 + i%3); select [5, 8].
	it, err := h.QueryRange(countIndexer(), IntKey(5), IntKey(8))
	if err != nil {
		t.Fatalf("QueryRange: %v", err)
	}
	defer it.Close()
	last := int64(-1 << 62)
	count := 0
	for it.Next() {
		m, err := ReadAs[*Meter](it)
		if err != nil {
			t.Fatalf("ReadAs: %v", err)
		}
		usage := m.ViewCount + m.PrintCount
		if usage < 5 || usage > 8 {
			t.Fatalf("meter %d usage %d outside [5,8]", m.ID, usage)
		}
		if usage < last {
			t.Fatalf("range result out of order: %d after %d", usage, last)
		}
		last = usage
		count++
	}
	// Cross-check against a direct count.
	want := 0
	for i := 0; i < 200; i++ {
		u := int64(i%10 + i%3)
		if u >= 5 && u <= 8 {
			want++
		}
	}
	if count != want {
		t.Fatalf("range returned %d meters, want %d", count, want)
	}
}

func TestRangeUnboundedEnds(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 40)
	ct := s.Begin()
	defer ct.Abort()
	h, _ := ct.ReadCollection("profile")

	// The paper's Figure 7 query: everything above a threshold
	// ("query(&countIndexer, 100, plusInfinity)").
	it, err := h.QueryRange(countIndexer(), IntKey(9), nil)
	if err != nil {
		t.Fatalf("QueryRange: %v", err)
	}
	n1 := 0
	for it.Next() {
		n1++
	}
	it.Close()

	it2, _ := h.QueryRange(countIndexer(), nil, nil)
	n2 := 0
	for it2.Next() {
		n2++
	}
	it2.Close()
	if n2 != 40 {
		t.Fatalf("unbounded range saw %d", n2)
	}
	if n1 == 0 || n1 >= n2 {
		t.Fatalf("bounded range saw %d of %d", n1, n2)
	}
}

func TestPaperFigure7ResetLoop(t *testing.T) {
	// "Reset all Meter objects in the profile collection that have total
	// count exceeding 100" — the paper's update-through-iterator loop,
	// including the functional-index maintenance it triggers.
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()

	ct := s.Begin()
	h, err := ct.CreateCollection("profile", idIndexer(), countIndexer())
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	for i := 0; i < 30; i++ {
		if _, err := h.Insert(&Meter{ID: int64(i), ViewCount: int64(i * 10)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	ct2 := s.Begin()
	h2, err := ct2.WriteCollection("profile", idIndexer(), countIndexer())
	if err != nil {
		t.Fatalf("WriteCollection: %v", err)
	}
	it, err := h2.QueryRange(countIndexer(), IntKey(101), nil)
	if err != nil {
		t.Fatalf("QueryRange: %v", err)
	}
	reset := 0
	for it.Next() {
		m, err := WriteAs[*Meter](it)
		if err != nil {
			t.Fatalf("WriteAs: %v", err)
		}
		m.ViewCount, m.PrintCount = 0, 0
		reset++
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ct2.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if reset != 19 { // ids 11..29 have usage 110..290
		t.Fatalf("reset %d meters, want 19", reset)
	}

	// All reset meters are now findable at usage 0 — the index followed the
	// derived value.
	ct3 := s.Begin()
	defer ct3.Abort()
	h3, _ := ct3.ReadCollection("profile")
	it3, _ := h3.QueryExact(countIndexer(), IntKey(0))
	zeros := 0
	for it3.Next() {
		zeros++
	}
	it3.Close()
	if zeros != 19+1 { // +1 for the original meter with id 0
		t.Fatalf("meters at usage 0: %d, want 20", zeros)
	}
	// And nothing above 100 remains.
	it4, _ := h3.QueryRange(countIndexer(), IntKey(101), nil)
	if it4.Next() {
		t.Fatal("meters above 100 remain after reset")
	}
	it4.Close()
}

func TestHalloweenSyndromePrevented(t *testing.T) {
	// Update the key that the iteration index is built on: each meter's
	// usage is increased ABOVE the range bound while iterating that very
	// range. With immediate index maintenance this could re-visit rows
	// indefinitely; deferred maintenance must visit each exactly once.
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	ct := s.Begin()
	h, _ := ct.CreateCollection("profile", idIndexer(), countIndexer())
	for i := 0; i < 20; i++ {
		h.Insert(&Meter{ID: int64(i), ViewCount: 1})
	}
	it, err := h.QueryRange(countIndexer(), IntKey(0), IntKey(10))
	if err != nil {
		t.Fatalf("QueryRange: %v", err)
	}
	visits := 0
	for it.Next() {
		m, err := WriteAs[*Meter](it)
		if err != nil {
			t.Fatalf("WriteAs: %v", err)
		}
		m.ViewCount += 100 // moves the key beyond the range
		visits++
		if visits > 20 {
			t.Fatal("Halloween syndrome: endless iteration")
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if visits != 20 {
		t.Fatalf("visited %d rows, want 20", visits)
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestIteratorInsensitiveToOwnUpdates(t *testing.T) {
	// An open iterator must not observe updates performed through itself
	// (paper §5.2.2): a second query during iteration still sees old keys.
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 10)

	ct := s.Begin()
	h, _ := ct.WriteCollection("profile", idIndexer(), countIndexer())
	it, _ := h.Query(idIndexer())
	for it.Next() {
		m, err := WriteAs[*Meter](it)
		if err != nil {
			t.Fatalf("WriteAs: %v", err)
		}
		m.ViewCount = 1000
	}
	// Before Close, the usage index still reflects pre-update keys.
	if _, err := h.Insert(&Meter{ID: 999}); !errors.Is(err, ErrIteratorOpen) {
		t.Fatalf("insert with open iterator: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After Close the index reflects the updates.
	it2, _ := h.QueryRange(countIndexer(), IntKey(1000), nil)
	n := 0
	for it2.Next() {
		n++
	}
	it2.Close()
	if n != 10 {
		t.Fatalf("post-close index sees %d meters at 1000+, want 10", n)
	}
	ct.Commit(true)
}

func TestUniqueInsertRejected(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 5)
	ct := s.Begin()
	h, _ := ct.WriteCollection("profile", idIndexer(), countIndexer())
	if _, err := h.Insert(&Meter{ID: 3}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v", err)
	}
	ct.Abort()
}

func TestDeferredUniqueViolationRemovesObject(t *testing.T) {
	// Two meters; update one's id to collide with the other through an
	// iterator. At close, the violator is removed from the collection and
	// reported (paper §5.2.3).
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 2) // ids 0, 1

	ct := s.Begin()
	h, _ := ct.WriteCollection("profile", idIndexer(), countIndexer())
	it, _ := h.QueryExact(idIndexer(), IntKey(1))
	if !it.Next() {
		t.Fatal("meter 1 not found")
	}
	m, _ := WriteAs[*Meter](it)
	m.ID = 0 // collides with meter 0
	err := it.Close()
	var uv *UniqueViolationError
	if !errors.As(err, &uv) {
		t.Fatalf("Close: %v, want UniqueViolationError", err)
	}
	if len(uv.Removed) != 1 || uv.Index != "id" {
		t.Fatalf("violation: %+v", uv)
	}
	if h.Size() != 1 {
		t.Fatalf("size after removal: %d", h.Size())
	}
	// The survivor is still intact and indexed.
	it2, _ := h.QueryExact(idIndexer(), IntKey(0))
	n := 0
	for it2.Next() {
		n++
	}
	it2.Close()
	if n != 1 {
		t.Fatalf("id 0 lookup: %d results", n)
	}
	ct.Commit(true)
}

func TestDeleteThroughIterator(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 30)

	ct := s.Begin()
	h, _ := ct.WriteCollection("profile", idIndexer(), countIndexer())
	it, _ := h.Query(idIndexer())
	deleted := 0
	for it.Next() {
		m, err := ReadAs[*Meter](it)
		if err != nil {
			t.Fatalf("ReadAs: %v", err)
		}
		if m.ID%3 == 0 {
			if err := it.Delete(); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			deleted++
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if deleted != 10 {
		t.Fatalf("deleted %d", deleted)
	}

	ct2 := s.Begin()
	defer ct2.Abort()
	h2, _ := ct2.ReadCollection("profile")
	if h2.Size() != 20 {
		t.Fatalf("size after deletes: %d", h2.Size())
	}
	it2, _ := h2.Query(idIndexer())
	for it2.Next() {
		m, _ := ReadAs[*Meter](it2)
		if m.ID%3 == 0 {
			t.Fatalf("meter %d should be deleted", m.ID)
		}
	}
	it2.Close()
}

func TestDynamicIndexAddRemove(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()

	// Start with only the id index; add the usage index later, on a
	// populated collection, "without recompiling the application source
	// code or rebuilding the database" (paper §5).
	ct := s.Begin()
	h, _ := ct.CreateCollection("profile", idIndexer())
	for i := 0; i < 40; i++ {
		h.Insert(&Meter{ID: int64(i), ViewCount: int64(i)})
	}
	ct.Commit(true)

	ct2 := s.Begin()
	h2, err := ct2.WriteCollection("profile", idIndexer())
	if err != nil {
		t.Fatalf("WriteCollection: %v", err)
	}
	if err := h2.CreateIndex(countIndexer()); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	ct2.Commit(true)

	ct3 := s.Begin()
	h3, _ := ct3.ReadCollection("profile")
	it, err := h3.QueryRange(countIndexer(), IntKey(35), nil)
	if err != nil {
		t.Fatalf("QueryRange on new index: %v", err)
	}
	n := 0
	for it.Next() {
		n++
	}
	it.Close()
	if n != 5 {
		t.Fatalf("new index range: %d results, want 5", n)
	}
	ct3.Abort()

	// Remove it again.
	ct4 := s.Begin()
	h4, _ := ct4.WriteCollection("profile", idIndexer(), countIndexer())
	if err := h4.RemoveIndex("usage"); err != nil {
		t.Fatalf("RemoveIndex: %v", err)
	}
	if err := h4.RemoveIndex("id"); !errors.Is(err, ErrLastIndex) {
		t.Fatalf("removing last index: %v", err)
	}
	ct4.Commit(true)
}

// TestIndexDDLKeepsExtractorsAligned removes an index that is not the last
// and creates another, inside one transaction: the handle keeps its
// extractors by index slot, so the slots must shift with the descriptions or
// later inserts would key the wrong index.
func TestIndexDDLKeepsExtractorsAligned(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	views := NewIndexer("views", false, BTree, func(m *Meter) IntKey { return IntKey(m.ViewCount) })

	ct := s.Begin()
	h, err := ct.CreateCollection("profile", countIndexer(), idIndexer())
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := h.Insert(&Meter{ID: int64(i), ViewCount: int64(100 + i)}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := h.RemoveIndex("usage"); err != nil { // slot 0: "id" moves down
		t.Fatalf("RemoveIndex: %v", err)
	}
	if err := h.CreateIndex(views); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if _, err := h.Insert(&Meter{ID: 20, ViewCount: 120}); err != nil {
		t.Fatalf("Insert after DDL: %v", err)
	}
	if _, err := h.Insert(&Meter{ID: 20, ViewCount: 999}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate id after DDL: %v", err)
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	ro := s.BeginReadOnly()
	defer ro.Abort()
	rh, err := ro.ReadCollection("profile")
	if err != nil {
		t.Fatalf("ReadCollection: %v", err)
	}
	it, err := rh.QueryExact(idIndexer(), IntKey(20))
	if err != nil || it.Len() != 1 {
		t.Fatalf("QueryExact(id=20): %v, %d results", err, it.Len())
	}
	it.Close()
	it, err = rh.QueryRange(views, IntKey(110), IntKey(120))
	if err != nil || it.Len() != 11 {
		t.Fatalf("QueryRange(views 110..120): %v, %d results, want 11", err, it.Len())
	}
	it.Close()
}

func TestCreateUniqueIndexOnDuplicates(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	ct := s.Begin()
	h, _ := ct.CreateCollection("profile", idIndexer())
	h.Insert(&Meter{ID: 1, ViewCount: 7})
	h.Insert(&Meter{ID: 2, ViewCount: 7})
	// A unique index over the (duplicated) view count must fail (paper
	// Figure 6: createIndex "raises an exception").
	uniqViews := NewIndexer("views", true, BTree, func(m *Meter) IntKey { return IntKey(m.ViewCount) })
	if err := h.CreateIndex(uniqViews); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique index over duplicates: %v", err)
	}
	ct.Abort()
}

func TestPersistenceAcrossReopen(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	mustCreateProfile(t, s, 75)
	s.ObjectStore().Close()

	s2 := e.open(t)
	defer s2.ObjectStore().Close()
	ct := s2.Begin()
	defer ct.Abort()
	h, err := ct.ReadCollection("profile")
	if err != nil {
		t.Fatalf("ReadCollection after reopen: %v", err)
	}
	if h.Size() != 75 {
		t.Fatalf("size: %d", h.Size())
	}
	it, _ := h.QueryExact(idIndexer(), IntKey(33))
	if !it.Next() {
		t.Fatal("meter 33 missing after reopen")
	}
	it.Close()
	names, _ := ct.ListCollections()
	if len(names) != 1 || names[0] != "profile" {
		t.Fatalf("collections: %v", names)
	}
}

func TestRemoveCollection(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 25)

	before := s.ObjectStore().Chunks().Stats().Chunks
	ct := s.Begin()
	if err := ct.RemoveCollection("profile"); err != nil {
		t.Fatalf("RemoveCollection: %v", err)
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	ct2 := s.Begin()
	defer ct2.Abort()
	if _, err := ct2.ReadCollection("profile"); !errors.Is(err, ErrNoSuchCollection) {
		t.Fatalf("read removed collection: %v", err)
	}
	after := s.ObjectStore().Chunks().Stats().Chunks
	if after >= before {
		t.Fatalf("collection removal did not free chunks: %d -> %d", before, after)
	}
	// Only the catalog and root pointer chunks should remain.
	if after > 3 {
		t.Fatalf("%d chunks left after removing the only collection", after)
	}
}

func TestWrongSchemaObjectRejected(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 1)
	ct := s.Begin()
	h, _ := ct.WriteCollection("profile", idIndexer(), countIndexer())
	// A catalogObject is a valid Object but not a *Meter.
	if _, err := h.Insert(&catalogObject{}); !errors.Is(err, ErrWrongSchema) {
		t.Fatalf("wrong schema insert: %v", err)
	}
	ct.Abort()
}

func TestReadonlyHandleRejectsMutation(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 3)
	ct := s.Begin()
	defer ct.Abort()
	h, _ := ct.ReadCollection("profile")
	if _, err := h.Insert(&Meter{ID: 99}); !errors.Is(err, ErrReadonlyCollection) {
		t.Fatalf("insert on read-only handle: %v", err)
	}
	it, _ := h.Query(idIndexer())
	it.Next()
	if _, err := it.Write(); !errors.Is(err, ErrReadonlyCollection) {
		t.Fatalf("Write on read-only handle: %v", err)
	}
	if err := it.Delete(); !errors.Is(err, ErrReadonlyCollection) {
		t.Fatalf("Delete on read-only handle: %v", err)
	}
	it.Close()
}

func TestWritableDerefRequiresSoleIterator(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 5)
	ct := s.Begin()
	h, _ := ct.WriteCollection("profile", idIndexer(), countIndexer())
	it1, _ := h.Query(idIndexer())
	it2, _ := h.Query(idIndexer())
	it1.Next()
	if _, err := it1.Write(); !errors.Is(err, ErrIteratorOpen) {
		t.Fatalf("writable deref with two iterators: %v", err)
	}
	it2.Close()
	if _, err := it1.Write(); err != nil {
		t.Fatalf("writable deref after closing the other: %v", err)
	}
	if err := it1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ct.Commit(true)
}

func TestCommitWithOpenIteratorRejected(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 3)
	ct := s.Begin()
	h, _ := ct.ReadCollection("profile")
	it, _ := h.Query(idIndexer())
	if err := ct.Commit(true); !errors.Is(err, ErrIteratorOpen) {
		t.Fatalf("commit with open iterator: %v", err)
	}
	it.Close()
	if err := ct.Commit(true); err != nil {
		t.Fatalf("commit after close: %v", err)
	}
}

func TestAbortDiscardsCollectionChanges(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	mustCreateProfile(t, s, 10)

	ct := s.Begin()
	h, _ := ct.WriteCollection("profile", idIndexer(), countIndexer())
	h.Insert(&Meter{ID: 100})
	it, _ := h.QueryExact(idIndexer(), IntKey(5))
	it.Next()
	it.Delete()
	it.Close()
	ct.Abort()

	ct2 := s.Begin()
	defer ct2.Abort()
	h2, _ := ct2.ReadCollection("profile")
	if h2.Size() != 10 {
		t.Fatalf("size after abort: %d", h2.Size())
	}
	it2, _ := h2.QueryExact(idIndexer(), IntKey(5))
	if !it2.Next() {
		t.Fatal("meter 5 lost by aborted delete")
	}
	it2.Close()
	it3, _ := h2.QueryExact(idIndexer(), IntKey(100))
	if it3.Next() {
		t.Fatal("aborted insert visible")
	}
	it3.Close()
}

func TestLargeCollectionHashGrowth(t *testing.T) {
	// Push the linear hash table through many splits and verify every key
	// remains findable (also exercises segment spine growth).
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	const n = 5000
	ct := s.Begin()
	h, _ := ct.CreateCollection("profile", idIndexer())
	for i := 0; i < n; i++ {
		if _, err := h.Insert(&Meter{ID: int64(i)}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	ct2 := s.Begin()
	defer ct2.Abort()
	h2, _ := ct2.ReadCollection("profile")
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 200; k++ {
		id := int64(rng.Intn(n))
		it, err := h2.QueryExact(idIndexer(), IntKey(id))
		if err != nil {
			t.Fatalf("QueryExact(%d): %v", id, err)
		}
		if !it.Next() {
			t.Fatalf("id %d missing after hash growth", id)
		}
		it.Close()
	}
	// Probing for absent keys yields nothing.
	it, _ := h2.QueryExact(idIndexer(), IntKey(n+12345))
	if it.Next() {
		t.Fatal("phantom key found")
	}
	it.Close()
}

func TestBTreeModelComparison(t *testing.T) {
	// Property test: random inserts/deletes through the collection API,
	// compared against a sorted in-memory model via range queries.
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	usageIx := NewIndexer("usage", false, BTree, func(m *Meter) IntKey { return IntKey(m.ViewCount) })
	idIx := NewIndexer("id", true, BTree, func(m *Meter) IntKey { return IntKey(m.ID) })

	ct := s.Begin()
	h, err := ct.CreateCollection("model", idIx, usageIx)
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	model := map[int64]int64{} // id -> usage
	nextID := int64(0)
	for step := 0; step < 800; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert
			id := nextID
			nextID++
			usage := int64(rng.Intn(50))
			if _, err := h.Insert(&Meter{ID: id, ViewCount: usage}); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			model[id] = usage
		case 6, 7: // delete random
			if len(model) == 0 {
				continue
			}
			id := randomKey(rng, model)
			it, _ := h.QueryExact(idIx, IntKey(id))
			if !it.Next() {
				t.Fatalf("step %d: id %d missing", step, id)
			}
			if err := it.Delete(); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			delete(model, id)
		default: // update usage through iterator
			if len(model) == 0 {
				continue
			}
			id := randomKey(rng, model)
			it, _ := h.QueryExact(idIx, IntKey(id))
			if !it.Next() {
				t.Fatalf("step %d: id %d missing", step, id)
			}
			m, err := WriteAs[*Meter](it)
			if err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			usage := int64(rng.Intn(50))
			m.ViewCount = usage
			if err := it.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			model[id] = usage
		}
	}
	// Validate with a full ordered scan of the usage index.
	var wantUsages []int64
	for _, u := range model {
		wantUsages = append(wantUsages, u)
	}
	sort.Slice(wantUsages, func(i, j int) bool { return wantUsages[i] < wantUsages[j] })
	var gotUsages []int64
	it, _ := h.Query(usageIx)
	for it.Next() {
		m, err := ReadAs[*Meter](it)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		gotUsages = append(gotUsages, m.ViewCount)
	}
	it.Close()
	if len(gotUsages) != len(wantUsages) {
		t.Fatalf("scan: %d entries, want %d", len(gotUsages), len(wantUsages))
	}
	for i := range gotUsages {
		if gotUsages[i] != wantUsages[i] {
			t.Fatalf("scan position %d: %d, want %d", i, gotUsages[i], wantUsages[i])
		}
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if h.Size() != int64(len(model)) {
		t.Fatalf("size %d, model %d", h.Size(), len(model))
	}
}

func randomKey(rng *rand.Rand, m map[int64]int64) int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys[rng.Intn(len(keys))]
}

func TestListIndexPreservesInsertionOrder(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	listIx := NewIndexer("log", false, List, func(m *Meter) IntKey { return IntKey(m.ID) })
	ct := s.Begin()
	h, _ := ct.CreateCollection("audit", listIx)
	// Insert in a scrambled order; scans must return exactly that order.
	order := []int64{5, 1, 9, 3, 7, 2, 8}
	for _, id := range order {
		if _, err := h.Insert(&Meter{ID: id}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	it, _ := h.Query(listIx)
	var got []int64
	for it.Next() {
		m, _ := ReadAs[*Meter](it)
		got = append(got, m.ID)
	}
	it.Close()
	if len(got) != len(order) {
		t.Fatalf("scan: %v", got)
	}
	for i := range order {
		if got[i] != order[i] {
			t.Fatalf("order: %v, want %v", got, order)
		}
	}
	ct.Commit(true)
}

func TestListIndexLongAppends(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	listIx := NewIndexer("log", false, List, func(m *Meter) IntKey { return IntKey(m.ID) })
	ct := s.Begin()
	h, _ := ct.CreateCollection("audit", listIx)
	const n = 500 // crosses many node boundaries
	for i := 0; i < n; i++ {
		h.Insert(&Meter{ID: int64(i)})
	}
	ct.Commit(true)

	ct2 := s.Begin()
	defer ct2.Abort()
	h2, _ := ct2.ReadCollection("audit")
	it, _ := h2.Query(listIx)
	count := int64(0)
	for it.Next() {
		m, _ := ReadAs[*Meter](it)
		if m.ID != count {
			t.Fatalf("position %d holds id %d", count, m.ID)
		}
		count++
	}
	it.Close()
	if count != n {
		t.Fatalf("scanned %d", count)
	}
}

func TestSchemaEvolutionViaInterface(t *testing.T) {
	// The paper evolves schemas by subclassing the collection schema class
	// (§5.1.1); in Go the schema class is an interface and evolution means
	// new implementing types. ExtendedMeter joins the same collection.
	e := newColEnv(t)
	e.reg.Register(extMeterClass, func() objectstore.Object { return &ExtendedMeter{} })
	s := e.open(t)
	defer s.ObjectStore().Close()

	metered := NewIndexer("id", true, HashTable, func(m Metered) IntKey { return IntKey(m.MeterID()) })
	ct := s.Begin()
	h, err := ct.CreateCollection("mixed", metered)
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	if _, err := h.Insert(&Meter{ID: 1}); err != nil {
		t.Fatalf("insert base: %v", err)
	}
	if _, err := h.Insert(&ExtendedMeter{Meter: Meter{ID: 2}, Region: "EU"}); err != nil {
		t.Fatalf("insert extended: %v", err)
	}
	it, _ := h.QueryExact(metered, IntKey(2))
	if !it.Next() {
		t.Fatal("extended meter not indexed")
	}
	obj, _ := it.Read()
	ext, ok := obj.(*ExtendedMeter)
	if !ok || ext.Region != "EU" {
		t.Fatalf("read back: %#v", obj)
	}
	it.Close()
	ct.Commit(true)
}

// Metered is the evolvable schema interface.
type Metered interface {
	objectstore.Object
	MeterID() int64
}

func (m *Meter) MeterID() int64 { return m.ID }

// ExtendedMeter is a schema evolution of Meter.
type ExtendedMeter struct {
	Meter
	Region string
}

const extMeterClass objectstore.ClassID = 3002

func (m *ExtendedMeter) ClassID() objectstore.ClassID { return extMeterClass }
func (m *ExtendedMeter) Pickle(p *objectstore.Pickler) {
	m.Meter.Pickle(p)
	p.String(m.Region)
}
func (m *ExtendedMeter) Unpickle(u *objectstore.Unpickler) error {
	if err := m.Meter.Unpickle(u); err != nil {
		return err
	}
	m.Region = u.String()
	return u.Err()
}

func TestCrashDuringCollectionWork(t *testing.T) {
	e := newColEnv(t)
	s := e.open(t)
	mustCreateProfile(t, s, 20)

	// Nondurable update, then crash: the update disappears, indexes stay
	// consistent.
	ct := s.Begin()
	h, _ := ct.WriteCollection("profile", idIndexer(), countIndexer())
	it, _ := h.QueryExact(idIndexer(), IntKey(5))
	it.Next()
	m, _ := WriteAs[*Meter](it)
	m.ViewCount = 5000
	it.Close()
	if err := ct.Commit(false); err != nil {
		t.Fatalf("nondurable commit: %v", err)
	}
	e.mem.Crash()

	s2 := e.open(t)
	defer s2.ObjectStore().Close()
	ct2 := s2.Begin()
	defer ct2.Abort()
	h2, _ := ct2.ReadCollection("profile")
	it2, _ := h2.QueryRange(countIndexer(), IntKey(5000), nil)
	if it2.Next() {
		t.Fatal("nondurable index update survived crash")
	}
	it2.Close()
	if h2.Size() != 20 {
		t.Fatalf("size after crash: %d", h2.Size())
	}
	it3, _ := h2.QueryExact(idIndexer(), IntKey(5))
	if !it3.Next() {
		t.Fatal("meter 5 lost")
	}
	mm, _ := ReadAs[*Meter](it3)
	if mm.ViewCount == 5000 {
		t.Fatal("nondurable object update survived crash")
	}
	it3.Close()
}

func TestKeyEncodingsOrderPreserving(t *testing.T) {
	intVals := []int64{-1 << 62, -100, -1, 0, 1, 7, 1 << 40}
	for i := 1; i < len(intVals); i++ {
		a := IntKey(intVals[i-1]).Encode()
		b := IntKey(intVals[i]).Encode()
		if string(a) >= string(b) {
			t.Fatalf("IntKey order broken at %d vs %d", intVals[i-1], intVals[i])
		}
	}
	floatVals := []float64{-1e300, -2.5, -0.0, 1e-10, 3.25, 1e300}
	for i := 1; i < len(floatVals); i++ {
		a := FloatKey(floatVals[i-1]).Encode()
		b := FloatKey(floatVals[i]).Encode()
		if string(a) >= string(b) {
			t.Fatalf("FloatKey order broken at %g vs %g", floatVals[i-1], floatVals[i])
		}
	}
	strVals := []string{"", "a", "a\x00b", "ab", "b"}
	for i := 1; i < len(strVals); i++ {
		a := StringKey(strVals[i-1]).Encode()
		b := StringKey(strVals[i]).Encode()
		if string(a) >= string(b) {
			t.Fatalf("StringKey order broken at %q vs %q", strVals[i-1], strVals[i])
		}
	}
	// Composite ordering: (a,2) < (b,1).
	c1 := CompositeKey{StringKey("a"), IntKey(2)}.Encode()
	c2 := CompositeKey{StringKey("b"), IntKey(1)}.Encode()
	if string(c1) >= string(c2) {
		t.Fatal("CompositeKey order broken")
	}
	// Prefix-freedom: "a" vs "ab" with following components.
	p1 := CompositeKey{StringKey("a"), IntKey(1 << 40)}.Encode()
	p2 := CompositeKey{StringKey("ab"), IntKey(0)}.Encode()
	if string(p1) >= string(p2) {
		t.Fatal("CompositeKey prefix handling broken")
	}
	if BoolKey(false).Encode()[0] >= BoolKey(true).Encode()[0] {
		t.Fatal("BoolKey order broken")
	}
	if string(UintKey(1).Encode()) >= string(UintKey(2).Encode()) {
		t.Fatal("UintKey order broken")
	}
	if string(BytesKey([]byte{1}).Encode()) >= string(BytesKey([]byte{2}).Encode()) {
		t.Fatal("BytesKey order broken")
	}
}

func TestImmutableKeyDeclaration(t *testing.T) {
	// The §5.2.3 optimization: the id index key is declared immutable, so
	// writable dereferences skip its snapshot; updates to other fields and
	// deletes still work, and the id index stays correct.
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	idIm := &Indexer[*Meter, IntKey]{
		IndexName: "id", IsUnique: true, Organization: HashTable,
		KeyImmutable: true,
		Extract:      func(m *Meter) IntKey { return IntKey(m.ID) },
	}
	usage := countIndexer()
	ct := s.Begin()
	h, err := ct.CreateCollection("profile", idIm, usage)
	if err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := h.Insert(&Meter{ID: int64(i), ViewCount: int64(i)}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Update a non-key field through an iterator.
	it, _ := h.QueryExact(idIm, IntKey(7))
	it.Next()
	m, err := WriteAs[*Meter](it)
	if err != nil {
		t.Fatalf("WriteAs: %v", err)
	}
	m.ViewCount = 500
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The usage (mutable) index followed; the id index still finds the row.
	it2, _ := h.QueryExact(usage, IntKey(500))
	if !it2.Next() {
		t.Fatal("usage index not maintained")
	}
	it2.Close()
	it3, _ := h.QueryExact(idIm, IntKey(7))
	if !it3.Next() {
		t.Fatal("immutable id index lost the row")
	}
	// Delete through the iterator: the immutable index entry must go too.
	if err := it3.Delete(); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := it3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	it4, _ := h.QueryExact(idIm, IntKey(7))
	if it4.Next() {
		t.Fatal("deleted row still indexed")
	}
	it4.Close()
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestImmutableKeyUpdateThenDelete(t *testing.T) {
	// Write-deref an object (immutable id index snapshot skipped), mutate a
	// non-key field, then delete it in the same iterator.
	e := newColEnv(t)
	s := e.open(t)
	defer s.ObjectStore().Close()
	idIm := &Indexer[*Meter, IntKey]{
		IndexName: "id", IsUnique: true, Organization: BTree,
		KeyImmutable: true,
		Extract:      func(m *Meter) IntKey { return IntKey(m.ID) },
	}
	ct := s.Begin()
	h, _ := ct.CreateCollection("profile", idIm)
	h.Insert(&Meter{ID: 1})
	h.Insert(&Meter{ID: 2})
	it, _ := h.Query(idIm)
	for it.Next() {
		m, err := WriteAs[*Meter](it)
		if err != nil {
			t.Fatalf("WriteAs: %v", err)
		}
		m.PrintCount = 9
		if m.ID == 1 {
			if err := it.Delete(); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if h.Size() != 1 {
		t.Fatalf("size: %d", h.Size())
	}
	it2, _ := h.QueryExact(idIm, IntKey(1))
	if it2.Next() {
		t.Fatal("deleted meter still present")
	}
	it2.Close()
	ct.Commit(true)
}
