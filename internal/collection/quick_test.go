package collection

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"tdb/internal/objectstore"
)

// Property tests (testing/quick) on the key encodings: order preservation
// and prefix-freedom are what the B-tree's byte-wise comparisons rely on.

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}
}

// TestQuickHashEncodedIsFNV1a pins the spelled-out hash to hash/fnv: bucket
// placement in every stored hash index depends on these exact values.
func TestQuickHashEncodedIsFNV1a(t *testing.T) {
	f := func(enc []byte) bool {
		h := fnv.New64a()
		h.Write(enc)
		return hashEncoded(enc) == h.Sum64()
	}
	if err := quick.Check(f, quickCfg(7)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntKeyOrderPreserving(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := IntKey(a).Encode(), IntKey(b).Encode()
		switch {
		case a < b:
			return bytes.Compare(ea, eb) < 0
		case a > b:
			return bytes.Compare(ea, eb) > 0
		default:
			return bytes.Equal(ea, eb)
		}
	}
	if err := quick.Check(f, quickCfg(1)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUintKeyOrderPreserving(t *testing.T) {
	f := func(a, b uint64) bool {
		return (a < b) == (bytes.Compare(UintKey(a).Encode(), UintKey(b).Encode()) < 0)
	}
	if err := quick.Check(f, quickCfg(2)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringKeyOrderPreserving(t *testing.T) {
	f := func(a, b string) bool {
		ea, eb := StringKey(a).Encode(), StringKey(b).Encode()
		switch {
		case a < b:
			return bytes.Compare(ea, eb) < 0
		case a > b:
			return bytes.Compare(ea, eb) > 0
		default:
			return bytes.Equal(ea, eb)
		}
	}
	if err := quick.Check(f, quickCfg(3)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringKeyPrefixFree(t *testing.T) {
	// No encoded key may be a strict prefix of another: composite keys and
	// B-tree separators depend on it.
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		ea, eb := StringKey(a).Encode(), StringKey(b).Encode()
		if len(ea) < len(eb) && bytes.Equal(ea, eb[:len(ea)]) {
			return false
		}
		if len(eb) < len(ea) && bytes.Equal(eb, ea[:len(eb)]) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg(4)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloatKeyOrderPreserving(t *testing.T) {
	f := func(a, b float64) bool {
		if a != a || b != b { // skip NaN
			return true
		}
		ea, eb := FloatKey(a).Encode(), FloatKey(b).Encode()
		switch {
		case a < b:
			return bytes.Compare(ea, eb) < 0
		case a > b:
			return bytes.Compare(ea, eb) > 0
		default:
			return bytes.Equal(ea, eb)
		}
	}
	if err := quick.Check(f, quickCfg(5)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompositeKeyOrder(t *testing.T) {
	// Lexicographic over components: compare (s1, i1) vs (s2, i2).
	f := func(s1 string, i1 int64, s2 string, i2 int64) bool {
		k1 := CompositeKey{StringKey(s1), IntKey(i1)}.Encode()
		k2 := CompositeKey{StringKey(s2), IntKey(i2)}.Encode()
		var want int
		switch {
		case s1 < s2:
			want = -1
		case s1 > s2:
			want = 1
		case i1 < i2:
			want = -1
		case i1 > i2:
			want = 1
		}
		got := bytes.Compare(k1, k2)
		if got < 0 {
			got = -1
		} else if got > 0 {
			got = 1
		}
		return got == want
	}
	if err := quick.Check(f, quickCfg(6)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBTreeSearchEntries property-tests the binary searches against
// linear scans.
func TestQuickBTreeSearchEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		entries := make([]keyOID, 0, n)
		last := int64(0)
		for i := 0; i < n; i++ {
			last += int64(rng.Intn(3)) // duplicates allowed
			entries = append(entries, keyOID{
				key: IntKey(last).Encode(),
				oid: objectstore.ObjectID(1 + rng.Intn(5)),
			})
		}
		// keep (key, oid) sorted
		for i := 1; i < len(entries); i++ {
			for j := i; j > 0 && entryLess(entries[j].key, entries[j].oid, entries[j-1].key, entries[j-1].oid); j-- {
				entries[j], entries[j-1] = entries[j-1], entries[j]
			}
		}
		key := IntKey(int64(rng.Intn(int(last + 2)))).Encode()
		oid := objectstore.ObjectID(1 + rng.Intn(5))
		got := searchEntries(entries, key, oid)
		want := 0
		for want < len(entries) && entryLess(entries[want].key, entries[want].oid, key, oid) {
			want++
		}
		if got != want {
			t.Fatalf("trial %d: searchEntries=%d, linear=%d", trial, got, want)
		}
	}
}
