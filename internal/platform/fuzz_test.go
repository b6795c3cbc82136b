package platform

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// fileBytes returns the named file's current content, synced or not.
func fileBytes(tb testing.TB, store UntrustedStore, name string) []byte {
	tb.Helper()
	f, err := store.Open(name)
	if err != nil {
		tb.Fatalf("Open(%q): %v", name, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		tb.Fatalf("Size(%q): %v", name, err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		tb.Fatalf("ReadAt(%q): %v", name, err)
	}
	return buf
}

// counterSeeds returns real counter files: a fresh one, one after five
// increments, and one whose sixth increment tore its slot write in half.
func counterSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	c, err := NewFileCounter(fs, "counter")
	if err != nil {
		tb.Fatalf("NewFileCounter: %v", err)
	}
	fresh := fileBytes(tb, mem, "counter")
	for i := 0; i < 5; i++ {
		if _, err := c.Increment(); err != nil {
			tb.Fatalf("Increment: %v", err)
		}
	}
	counted := fileBytes(tb, mem, "counter")
	fs.TornTail = true
	fs.SetWriteBudget(1)
	if _, err := c.Increment(); err == nil {
		tb.Fatal("an increment whose slot write tears succeeded")
	}
	torn := fileBytes(tb, mem, "counter")
	if v, _ := largestValidSlot(torn); v != 5 {
		tb.Fatalf("the torn counter file's larger valid slot holds %d, want 5", v)
	}
	return [][]byte{fresh, counted, torn}
}

// largestValidSlot decodes a counter file's two slots on its own terms:
// bytes past the end read as zeros, and a slot is valid when its check word
// is its value's complement.
func largestValidSlot(data []byte) (v uint64, ok bool) {
	var file [2 * counterSlotSize]byte
	copy(file[:], data)
	for slot := 0; slot < 2; slot++ {
		b := file[slot*counterSlotSize:]
		if sv := binary.BigEndian.Uint64(b[0:8]); binary.BigEndian.Uint64(b[8:16]) == ^sv && (!ok || sv > v) {
			v, ok = sv, true
		}
	}
	return v, ok
}

// FuzzFileCounterLoad holds the counter file's two-slot anchor to its
// contract: opening any bytes returns the larger valid slot or an error,
// with bounded allocation and never a panic. An opened counter increments
// to that value + 1, which a reopen reads back; at the largest value the
// increment fails and the value stays. The seeds are real counter files
// (counterSeeds) and one at the largest value.
func FuzzFileCounterLoad(f *testing.F) {
	for _, data := range counterSeeds(f) {
		f.Add(data)
	}
	last := binary.BigEndian.AppendUint64(nil, math.MaxUint64)
	last = binary.BigEndian.AppendUint64(last, 0)
	f.Add(last)
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := NewMemStore()
		mem.Restore(map[string][]byte{"counter": data})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := NewFileCounter(mem, "counter")
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(data)); got > limit {
			t.Fatalf("opening %d bytes allocated %d bytes, want <= %d", len(data), got, limit)
		}
		want, ok := largestValidSlot(data)
		if !ok {
			if err == nil {
				t.Fatalf("opened a counter file with no valid slot: %x", data)
			}
			return
		}
		if err != nil {
			t.Fatalf("opening a counter file whose larger valid slot holds %d: %v", want, err)
		}
		if v, _ := c.Read(); v != want {
			t.Fatalf("opened counter reads %d, want %d", v, want)
		}
		next, err := c.Increment()
		switch {
		case want == math.MaxUint64:
			if err == nil {
				t.Fatalf("the counter at its largest value incremented to %d", next)
			}
		case err != nil:
			t.Fatalf("Increment from %d: %v", want, err)
		case next != want+1:
			t.Fatalf("Increment from %d returned %d", want, next)
		default:
			want++
		}
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		c, err = NewFileCounter(mem, "counter")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if v, _ := c.Read(); v != want {
			t.Fatalf("reopened counter reads %d, want %d", v, want)
		}
	})
}
