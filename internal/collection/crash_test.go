package collection

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tdb/internal/chunkstore"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// TestCrashConsistencyOfIndexes runs a random collection workload with
// periodic crashes and verifies after every recovery that (a) the
// collection matches an in-memory model of the durably committed state and
// (b) all indexes agree with each other — no entry lost, none duplicated,
// sizes consistent. This is the end-to-end guarantee the layering is for:
// a crash can never leave an index out of sync with its objects, because
// both commit atomically in the chunk store.
func TestCrashConsistencyOfIndexes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runCollectionCrashWorkload(t, seed)
		})
	}
}

type colCrashEnv struct {
	mem     *platform.MemStore
	counter *platform.MemCounter
	suite   sec.Suite
	reg     *objectstore.Registry
}

func (e *colCrashEnv) open(t *testing.T) *Store {
	t.Helper()
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:       e.mem,
		Counter:     e.counter,
		Suite:       e.suite,
		SegmentSize: 8 << 10,
		CacheBytes:  1 << 20,
	})
	if err != nil {
		t.Fatalf("chunkstore.Open: %v", err)
	}
	os, err := objectstore.Open(objectstore.Config{
		Chunks:      cs,
		Registry:    e.reg,
		LockTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("objectstore.Open: %v", err)
	}
	s, err := NewStore(os)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

func runCollectionCrashWorkload(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	suite, _ := sec.NewSuite("3des-sha1", []byte("collection-crash-secret-01234567"))
	reg := objectstore.NewRegistry()
	RegisterClasses(reg)
	reg.Register(meterClass, func() objectstore.Object { return &Meter{} })
	env := &colCrashEnv{
		mem:     platform.NewMemStore(),
		counter: platform.NewMemCounter(),
		suite:   suite,
		reg:     reg,
	}
	s := env.open(t)
	defer func() { s.ObjectStore().Close() }()

	// model: id -> usage for the durably committed state.
	model := map[int64]int64{}
	nextID := int64(0)

	ct := s.Begin()
	if _, err := ct.CreateCollection("m", idIndexer(), countIndexer()); err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	if err := ct.Commit(true); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	verify := func(tag string) {
		t.Helper()
		ct := s.Begin()
		defer ct.Abort()
		h, err := ct.ReadCollection("m")
		if err != nil {
			t.Fatalf("%s: ReadCollection: %v", tag, err)
		}
		if h.Size() != int64(len(model)) {
			t.Fatalf("%s: size %d, model %d", tag, h.Size(), len(model))
		}
		// Scan via the hash index; every row must match the model and be
		// findable via BOTH indexes.
		seen := map[int64]bool{}
		it, err := h.Query(idIndexer())
		if err != nil {
			t.Fatalf("%s: Query: %v", tag, err)
		}
		for it.Next() {
			m, err := ReadAs[*Meter](it)
			if err != nil {
				t.Fatalf("%s: ReadAs: %v", tag, err)
			}
			want, ok := model[m.ID]
			if !ok {
				t.Fatalf("%s: phantom meter %d", tag, m.ID)
			}
			if m.ViewCount+m.PrintCount != want {
				t.Fatalf("%s: meter %d usage %d, want %d", tag, m.ID, m.ViewCount+m.PrintCount, want)
			}
			if seen[m.ID] {
				t.Fatalf("%s: meter %d enumerated twice", tag, m.ID)
			}
			seen[m.ID] = true
			// Cross-index agreement: the usage B-tree must also hold it.
			uit, err := h.QueryExact(countIndexer(), IntKey(want))
			if err != nil {
				t.Fatalf("%s: usage lookup: %v", tag, err)
			}
			found := false
			for uit.Next() {
				mm, _ := ReadAs[*Meter](uit)
				if mm.ID == m.ID {
					found = true
				}
			}
			uit.Close()
			if !found {
				t.Fatalf("%s: meter %d missing from usage index", tag, m.ID)
			}
		}
		it.Close()
		if len(seen) != len(model) {
			t.Fatalf("%s: scan saw %d of %d", tag, len(seen), len(model))
		}
	}

	liveIDs := func() []int64 {
		out := make([]int64, 0, len(model))
		for id := range model {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	for step := 0; step < 150; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert or update batch (durable)
			ct := s.Begin()
			h, err := ct.WriteCollection("m", idIndexer(), countIndexer())
			if err != nil {
				t.Fatalf("step %d: WriteCollection: %v", step, err)
			}
			staged := map[int64]int64{}
			if rng.Intn(2) == 0 || len(model) == 0 {
				id := nextID
				nextID++
				usage := int64(rng.Intn(100))
				if _, err := h.Insert(&Meter{ID: id, ViewCount: usage}); err != nil {
					t.Fatalf("step %d: Insert: %v", step, err)
				}
				staged[id] = usage
			} else {
				ids := liveIDs()
				id := ids[rng.Intn(len(ids))]
				it, err := h.QueryExact(idIndexer(), IntKey(id))
				if err != nil {
					t.Fatalf("step %d: QueryExact: %v", step, err)
				}
				if !it.Next() {
					t.Fatalf("step %d: meter %d missing", step, id)
				}
				m, err := WriteAs[*Meter](it)
				if err != nil {
					t.Fatalf("step %d: WriteAs: %v", step, err)
				}
				usage := int64(rng.Intn(100))
				m.ViewCount, m.PrintCount = usage, 0
				if err := it.Close(); err != nil {
					t.Fatalf("step %d: Close: %v", step, err)
				}
				staged[id] = usage
			}
			if err := ct.Commit(true); err != nil {
				t.Fatalf("step %d: Commit: %v", step, err)
			}
			for id, u := range staged {
				model[id] = u
			}
		case op < 6: // delete (durable)
			if len(model) == 0 {
				continue
			}
			ids := liveIDs()
			id := ids[rng.Intn(len(ids))]
			ct := s.Begin()
			h, _ := ct.WriteCollection("m", idIndexer(), countIndexer())
			it, _ := h.QueryExact(idIndexer(), IntKey(id))
			if !it.Next() {
				t.Fatalf("step %d: meter %d missing for delete", step, id)
			}
			if err := it.Delete(); err != nil {
				t.Fatalf("step %d: Delete: %v", step, err)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			if err := ct.Commit(true); err != nil {
				t.Fatalf("step %d: Commit: %v", step, err)
			}
			delete(model, id)
		case op < 8: // uncommitted work destroyed by a crash
			ct := s.Begin()
			h, _ := ct.WriteCollection("m", idIndexer(), countIndexer())
			h.Insert(&Meter{ID: nextID + 1000, ViewCount: 1})
			if ids := liveIDs(); len(ids) > 0 {
				it, _ := h.QueryExact(idIndexer(), IntKey(ids[rng.Intn(len(ids))]))
				if it.Next() {
					if m, err := WriteAs[*Meter](it); err == nil {
						m.ViewCount += 7777
					}
				}
				it.Close()
			}
			ct.Abort() // or crash below; either way it must vanish
			env.mem.Crash()
			s = env.open(t)
			verify(fmt.Sprintf("step %d post-crash", step))
		default: // clean reopen
			if err := s.ObjectStore().Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			s = env.open(t)
			verify(fmt.Sprintf("step %d post-reopen", step))
		}
	}
	verify("final")
	if err := s.ObjectStore().Chunks().Verify(); err != nil {
		t.Fatalf("final chunk audit: %v", err)
	}
}
