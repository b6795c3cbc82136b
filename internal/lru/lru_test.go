package lru

import "testing"

func TestPoolEvictsLRUOrder(t *testing.T) {
	p := NewPool(100)
	var evicted []string
	mk := func(name string, size int64) *Entry {
		return p.Add(size, func() bool {
			evicted = append(evicted, name)
			return true
		})
	}
	a := mk("a", 40)
	mk("b", 40)
	if len(evicted) != 0 {
		t.Fatalf("premature eviction: %v", evicted)
	}
	a.Touch() // a becomes MRU; b is now LRU
	mk("c", 40)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if p.Used() != 80 {
		t.Fatalf("used %d, want 80", p.Used())
	}
}

func TestPoolAddNeverEvictsItself(t *testing.T) {
	p := NewPool(50)
	var evictedA, evictedB bool
	p.Add(30, func() bool { evictedA = true; return true })
	b := p.Add(60, func() bool { evictedB = true; return true })
	// b alone exceeds the budget, yet survives its own Add; a is evicted.
	if !evictedA || evictedB || !resident(b) {
		t.Fatalf("after Add: a evicted %v, b evicted %v, b resident %v", evictedA, evictedB, resident(b))
	}
	p.Add(10, func() bool { return true })
	if !evictedB || resident(b) {
		t.Fatal("over-budget entry should have been evicted by the next Add")
	}
}

// resident reports whether the entry is still registered.
func resident(e *Entry) bool { return e.elem != nil }

func TestPoolVeto(t *testing.T) {
	p := NewPool(10)
	p.Add(8, func() bool { return false }) // always vetoes
	b := p.Add(8, func() bool { return true })
	// b survives its own Add; a later enforcement skips the vetoing LRU
	// entry and evicts b.
	if !resident(b) {
		t.Fatal("entry evicted during its own Add")
	}
	p.Enforce()
	if resident(b) {
		t.Fatal("expected b evicted after veto skip")
	}
	if p.Len() != 1 {
		t.Fatalf("len %d, want 1 (the vetoing entry)", p.Len())
	}
}

func TestPoolRemove(t *testing.T) {
	p := NewPool(100)
	calls := 0
	e := p.Add(60, func() bool { calls++; return true })
	e.Remove()
	if p.Used() != 0 || resident(e) {
		t.Fatalf("used %d resident %v after remove", p.Used(), resident(e))
	}
	if calls != 0 {
		t.Fatal("Remove must not invoke eviction callback")
	}
	e.Remove() // double remove is a no-op
	e.Touch()  // touch after remove is a no-op
	if p.Used() != 0 || p.Len() != 0 {
		t.Fatalf("remove left used %d, len %d", p.Used(), p.Len())
	}
}

func TestPoolUnlimitedBudget(t *testing.T) {
	p := NewPool(0)
	for i := 0; i < 100; i++ {
		p.Add(1000, func() bool { t.Fatal("eviction with unlimited budget"); return true })
	}
	if p.Len() != 100 {
		t.Fatalf("len %d", p.Len())
	}
}
