package platform

import (
	"errors"
	"testing"
)

func TestFaultStoreCrashesAfterBudget(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	f, err := fs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	fs.SetWriteBudget(2)
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.WriteAt([]byte("y"), 1); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	if _, err := f.WriteAt([]byte("z"), 2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write 3: got %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("store should report crashed")
	}
	// All subsequent operations fail.
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: %v", err)
	}
	if _, err := fs.Open("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash: %v", err)
	}
}

func TestFaultStoreSyncConsumesBudget(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	f, _ := fs.Create("a")
	fs.SetWriteBudget(1)
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second sync: %v", err)
	}
}

func TestFaultStoreUnarmedNeverCrashes(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	f, _ := fs.Create("a")
	for i := 0; i < 100; i++ {
		if _, err := f.WriteAt([]byte{byte(i)}, int64(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

func TestFaultStoreTornTail(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	fs.TornTail = true
	f, _ := fs.Create("a")
	fs.SetWriteBudget(1)
	if _, err := f.WriteAt([]byte("0123456789"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write should report crash: %v", err)
	}
	mem.Crash()
	// Before the crash the first half was applied but never synced, so after
	// power loss the file reverts to empty durable state.
	g, err := mem.Open("a")
	if err != nil {
		t.Fatalf("open underlying: %v", err)
	}
	if size, _ := g.Size(); size != 0 {
		t.Fatalf("unsynced torn write survived crash: size=%d", size)
	}
}

func TestFaultStoreTornTailDurable(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	fs.TornTail = true
	f, _ := fs.Create("a")
	fs.SetWriteBudget(2)
	if _, err := f.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The sync is the torn... budget hits zero on the next mutating op; the
	// torn write was the WriteAt above only if it was last. Here the write
	// succeeded fully; the sync makes it durable, then we are crashed.
	if err := f.Sync(); !errors.Is(err, ErrCrashed) && err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestFaultStoreCreateConsumesBudget(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	fs.SetWriteBudget(1)
	if _, err := fs.Create("a"); err != nil {
		t.Fatalf("Create within budget: %v", err)
	}
	if _, err := fs.Create("b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Create past budget: got %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("store should report crashed")
	}
	// The second file must not exist: the crash fired before creation.
	if _, err := mem.Open("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("file b exists despite crashed create: %v", err)
	}
}

func TestFaultStoreTransientReads(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	f, _ := fs.Create("a")
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	fs.SetTransientReads(1, 2) // every read fails twice before succeeding
	buf := make([]byte, 5)
	for attempt := 1; attempt <= 2; attempt++ {
		_, err := f.ReadAt(buf, 0)
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("attempt %d: got %v, want ErrTransient", attempt, err)
		}
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("retry after transient failures: %v", err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q, want %q", buf, "hello")
	}
	if got := fs.Stats().TransientErrors; got != 2 {
		t.Fatalf("TransientErrors = %d, want 2", got)
	}
}

func TestFaultStoreTransientWritesDoNotConsumeBudget(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	f, _ := fs.Create("a")
	fs.SetWriteBudget(2)
	fs.SetTransientWrites(1, 1) // every mutating op fails once
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrTransient) {
		t.Fatalf("first attempt: got %v, want ErrTransient", err)
	}
	if fs.WriteOps() != 2 {
		t.Fatalf("transient failure consumed budget: %d left, want 2", fs.WriteOps())
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if fs.WriteOps() != 1 {
		t.Fatalf("budget after successful write: %d, want 1", fs.WriteOps())
	}
}

func TestFaultStoreTransientEveryNth(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	f, _ := fs.Create("a")
	fs.SetTransientWrites(3, 1) // every 3rd distinct mutating op fails once
	failures := 0
	for i := 0; i < 9; i++ {
		if _, err := f.WriteAt([]byte{byte(i)}, int64(i)); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("write %d: %v", i, err)
			}
			failures++
			// Retry the same op; it must succeed.
			if _, err := f.WriteAt([]byte{byte(i)}, int64(i)); err != nil {
				t.Fatalf("retry of write %d: %v", i, err)
			}
		}
	}
	if failures != 3 {
		t.Fatalf("injected %d failures over 9 ops at every=3, want 3", failures)
	}
}

func TestFaultStoreFlipBit(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	f, _ := fs.Create("a")
	f.WriteAt([]byte{0x0f}, 3)
	f.Sync()
	if err := fs.FlipBit("a", 3, 0); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	var b [1]byte
	f.ReadAt(b[:], 3)
	if b[0] != 0x0e {
		t.Fatalf("byte after flip: %#x, want 0x0e", b[0])
	}
}

func TestFaultStoreLoseUnsyncedWrites(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	fs.SetLoseUnsynced(true)
	f, err := fs.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	f.WriteAt([]byte("durable"), 0)
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Unacknowledged overwrite + extension, then power loss.
	f.WriteAt([]byte("VOLATILE-VOLATILE"), 0)
	if err := fs.CrashLoseUnsynced(); err != nil {
		t.Fatalf("CrashLoseUnsynced: %v", err)
	}
	g, err := fs.Open("a")
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	size, _ := g.Size()
	if size != int64(len("durable")) {
		t.Fatalf("size after crash: %d, want %d", size, len("durable"))
	}
	buf := make([]byte, size)
	g.ReadAt(buf, 0)
	if string(buf) != "durable" {
		t.Fatalf("content after crash: %q, want %q", buf, "durable")
	}
}

func TestFaultStoreLoseUnsyncedCreatedFile(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	fs.SetLoseUnsynced(true)
	f, _ := fs.Create("fresh")
	f.WriteAt([]byte("never synced"), 0)
	if err := fs.CrashLoseUnsynced(); err != nil {
		t.Fatalf("CrashLoseUnsynced: %v", err)
	}
	g, err := fs.Open("fresh")
	if err != nil {
		t.Fatalf("created file should survive as empty: %v", err)
	}
	if size, _ := g.Size(); size != 0 {
		t.Fatalf("unsynced content survived: size=%d", size)
	}
}

func TestFaultStoreLoseUnsyncedComposesWithBudget(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	fs.SetLoseUnsynced(true)
	f, _ := fs.Create("a")
	f.WriteAt([]byte("base"), 0)
	f.Sync()
	fs.SetWriteBudget(1)
	if _, err := f.WriteAt([]byte("NEWDATA"), 0); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync past budget: got %v, want ErrCrashed", err)
	}
	// The write landed but its sync never did: a write-back crash loses it.
	if err := fs.CrashLoseUnsynced(); err != nil {
		t.Fatalf("CrashLoseUnsynced: %v", err)
	}
	g, _ := fs.Open("a")
	size, _ := g.Size()
	buf := make([]byte, size)
	g.ReadAt(buf, 0)
	if string(buf) != "base" {
		t.Fatalf("content after write-back crash: %q, want %q", buf, "base")
	}
}

// probScript runs a fixed operation script against a fresh FaultStore with
// probabilistic transient errors armed from the given seed, returning the
// observed fault schedule: for each op, whether it drew a transient error.
func probScript(t *testing.T, seed uint64) (schedule []bool) {
	t.Helper()
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	fs.SetRand(Splitmix64(seed))
	fs.SetFaultFilter(func(name string) bool { return name != "exempt" })
	fs.SetTransientProb(0.3, 0.3, 1)
	f, err := fs.Create("a")
	if err != nil {
		// Create can draw an injected failure; retry once (failures=1).
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("Create: %v", err)
		}
		schedule = append(schedule, true)
		if f, err = fs.Create("a"); err != nil {
			t.Fatalf("Create retry: %v", err)
		}
	} else {
		schedule = append(schedule, false)
	}
	payload := []byte("twelve-bytes")
	for i := 0; i < 16; i++ {
		off := int64(i * len(payload))
		_, err := f.WriteAt(payload, off)
		if errors.Is(err, ErrTransient) {
			schedule = append(schedule, true)
			if _, err = f.WriteAt(payload, off); err != nil {
				t.Fatalf("write %d retry: %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("write %d: %v", i, err)
		} else {
			schedule = append(schedule, false)
		}
	}
	buf := make([]byte, 16*len(payload))
	for i := 0; i < 4; i++ {
		_, err := f.ReadAt(buf, 0)
		if errors.Is(err, ErrTransient) {
			schedule = append(schedule, true)
			if _, err = f.ReadAt(buf, 0); err != nil {
				t.Fatalf("read %d retry: %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("read %d: %v", i, err)
		} else {
			schedule = append(schedule, false)
		}
	}
	return schedule
}

// TestFaultStoreProbabilisticReplay proves the satellite guarantee: the
// probabilistic fault schedule — which ops fail, and where — is a pure
// function of the injected seed.
func TestFaultStoreProbabilisticReplay(t *testing.T) {
	sched1 := probScript(t, 42)
	sched2 := probScript(t, 42)
	if len(sched1) != len(sched2) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(sched1), len(sched2))
	}
	for i := range sched1 {
		if sched1[i] != sched2[i] {
			t.Fatalf("schedules diverge at op %d: %v vs %v", i, sched1, sched2)
		}
	}
	anyFault := false
	for _, hit := range sched1 {
		anyFault = anyFault || hit
	}
	if !anyFault {
		t.Fatal("probabilistic modes injected nothing at p=0.3 over 21 ops")
	}
	// A different seed must produce a different schedule (overwhelmingly).
	sched3 := probScript(t, 43)
	same := len(sched1) == len(sched3)
	if same {
		for i := range sched1 {
			if sched1[i] != sched3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical fault schedules")
	}
}

// TestFaultStoreFaultFilterExemptsFiles proves the probabilistic modes skip
// filtered files entirely while deterministic budgets still apply.
func TestFaultStoreFaultFilterExemptsFiles(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem)
	fs.SetRand(Splitmix64(7))
	fs.SetFaultFilter(func(name string) bool { return name != "counter" })
	fs.SetTransientProb(1.0, 1.0, 3) // every unfiltered op fails
	f, err := fs.Create("counter")
	if err != nil {
		t.Fatalf("Create on exempt file drew a fault: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := f.WriteAt([]byte("v"), int64(i)); err != nil {
			t.Fatalf("write %d on exempt file drew a fault: %v", i, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %d on exempt file drew a fault: %v", i, err)
		}
	}
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read on exempt file drew a fault: %v", err)
	}
	if string(buf) != "vvvvvvvv" {
		t.Fatalf("exempt file holds %q, want %q", buf, "vvvvvvvv")
	}
	// The crash budget ignores the filter: exempt files still crash.
	fs.SetWriteBudget(1)
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("budgeted write: %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write past budget on exempt file: %v, want ErrCrashed", err)
	}
}
