package platform

import (
	"testing"
	"time"
)

func newTestDisk() (*SimDisk, *MemStore) {
	mem := NewMemStore()
	return NewSimDisk(mem, DefaultDiskParams()), mem
}

func TestSimDiskSequentialAppendPaysOneSyncOverhead(t *testing.T) {
	d, _ := newTestDisk()
	f, err := d.Create("log")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// First flush: head at 0, extent at 0 → no seek, one sync overhead.
	buf := make([]byte, 512)
	f.WriteAt(buf, 0)
	before := d.Elapsed()
	f.Sync()
	first := d.Elapsed() - before
	p := DefaultDiskParams()
	minCost := p.SyncOverhead
	maxCost := p.SyncOverhead + p.WriteSeek + time.Millisecond
	if first < minCost || first > maxCost {
		t.Fatalf("first flush cost %v, want within [%v, %v]", first, minCost, maxCost)
	}
	// Steady-state sequential appends: head stays at the tail, so each flush
	// should cost about one sync overhead plus transfer.
	var costs []time.Duration
	off := int64(512)
	for i := 0; i < 5; i++ {
		f.WriteAt(buf, off)
		off += 512
		b := d.Elapsed()
		f.Sync()
		costs = append(costs, d.Elapsed()-b)
	}
	for i, c := range costs {
		if c < p.SyncOverhead || c > p.SyncOverhead+time.Millisecond {
			t.Fatalf("sequential flush %d cost %v, want ≈ overhead %v", i, c, p.SyncOverhead)
		}
	}
}

func TestSimDiskScatteredWritesCostMoreThanSequential(t *testing.T) {
	p := DefaultDiskParams()

	seq, _ := newTestDisk()
	f, _ := seq.Create("log")
	buf := make([]byte, 4096)
	for i := 0; i < 8; i++ {
		f.WriteAt(buf, int64(i)*4096)
	}
	f.Sync()
	seqCost := seq.Elapsed()

	scat, _ := newTestDisk()
	g, _ := scat.Create("data")
	// Pre-extend the file so the pages land in distant extents.
	g.Truncate(16 << 20)
	for i := 0; i < 8; i++ {
		g.WriteAt(buf, int64(i)*2<<20)
	}
	g.Sync()
	scatCost := scat.Elapsed()

	if scatCost <= seqCost {
		t.Fatalf("scattered %v should cost more than sequential %v", scatCost, seqCost)
	}
	// Seven extra physically discontiguous runs must each pay at least the
	// short-seek floor.
	minExtra := 7 * time.Duration(0.02*float64(p.WriteSeek))
	if scatCost < seqCost+minExtra {
		t.Fatalf("scattered flush too cheap: %v vs sequential %v", scatCost, seqCost)
	}
}

func TestSimDiskCoalescesAdjacentWrites(t *testing.T) {
	d, _ := newTestDisk()
	f, _ := d.Create("log")
	// Many small adjacent appends must flush as one physical run.
	for i := 0; i < 100; i++ {
		f.WriteAt([]byte{byte(i)}, int64(i))
	}
	f.Sync()
	p := DefaultDiskParams()
	if got := d.Elapsed(); got > p.SyncOverhead+p.WriteSeek {
		t.Fatalf("coalesced flush cost %v, want ≤ %v", got, p.SyncOverhead+p.WriteSeek)
	}
}

func TestSimDiskReadsFreeByDefault(t *testing.T) {
	d, _ := newTestDisk()
	f, _ := d.Create("a")
	f.WriteAt(make([]byte, 1024), 0)
	f.Sync()
	before := d.Elapsed()
	buf := make([]byte, 1024)
	f.ReadAt(buf, 0)
	if d.Elapsed() != before {
		t.Fatal("reads should be free with ChargeReads=false")
	}
}

func TestSimDiskChargedReads(t *testing.T) {
	p := DefaultDiskParams()
	p.ChargeReads = true
	mem := NewMemStore()
	d := NewSimDisk(mem, p)
	f, _ := d.Create("a")
	f.WriteAt(make([]byte, 1024), 0)
	f.Sync()
	before := d.Elapsed()
	buf := make([]byte, 1024)
	f.ReadAt(buf, 0)
	if d.Elapsed() <= before {
		t.Fatal("charged read should advance the clock")
	}
}

func TestSimDiskSyncWithNothingDirtyIsFree(t *testing.T) {
	d, _ := newTestDisk()
	f, _ := d.Create("a")
	f.Sync()
	if d.Elapsed() != 0 {
		t.Fatalf("empty sync cost %v", d.Elapsed())
	}
}

func TestSimDiskDataPassesThrough(t *testing.T) {
	d, mem := newTestDisk()
	f, _ := d.Create("a")
	f.WriteAt([]byte("hello"), 0)
	f.Sync()
	g, err := mem.Open("a")
	if err != nil {
		t.Fatalf("inner open: %v", err)
	}
	buf := make([]byte, 5)
	g.ReadAt(buf, 0)
	if string(buf) != "hello" {
		t.Fatalf("inner content: %q", buf)
	}
	if err := d.Remove("a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := mem.Open("a"); err == nil {
		t.Fatal("file should be removed from inner store")
	}
}

func TestMeterStoreCounts(t *testing.T) {
	mem := NewMemStore()
	m := NewMeterStore(mem)
	f, err := m.Create("a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	f.WriteAt(make([]byte, 100), 0)
	f.WriteAt(make([]byte, 50), 100)
	f.Sync()
	buf := make([]byte, 150)
	f.ReadAt(buf, 0)
	st := m.Stats().Snapshot()
	if st.BytesWritten != 150 || st.WriteOps != 2 {
		t.Fatalf("writes: %+v", st)
	}
	if st.BytesRead != 150 || st.ReadOps != 1 {
		t.Fatalf("reads: %+v", st)
	}
	if st.SyncOps != 1 {
		t.Fatalf("syncs: %+v", st)
	}
	m.Stats().Reset()
	if st := m.Stats().Snapshot(); st.BytesWritten != 0 || st.BytesRead != 0 {
		t.Fatalf("after reset: %+v", st)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	for name, a := range map[string]ArchivalStore{
		"mem": NewMemArchive(),
	} {
		t.Run(name, func(t *testing.T) {
			w, err := a.CreateStream("backup-1")
			if err != nil {
				t.Fatalf("CreateStream: %v", err)
			}
			if _, err := w.Write([]byte("backup bytes")); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			r, err := a.OpenStream("backup-1")
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			buf := make([]byte, 12)
			if _, err := r.Read(buf); err != nil {
				t.Fatalf("Read: %v", err)
			}
			if string(buf) != "backup bytes" {
				t.Fatalf("got %q", buf)
			}
			r.Close()
			names, _ := a.ListStreams()
			if len(names) != 1 || names[0] != "backup-1" {
				t.Fatalf("ListStreams: %v", names)
			}
			if err := a.RemoveStream("backup-1"); err != nil {
				t.Fatalf("RemoveStream: %v", err)
			}
			if _, err := a.OpenStream("backup-1"); err == nil {
				t.Fatal("open removed stream should fail")
			}
		})
	}
}

func TestDirArchiveRoundTrip(t *testing.T) {
	a, err := NewDirArchive(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirArchive: %v", err)
	}
	w, err := a.CreateStream("b1")
	if err != nil {
		t.Fatalf("CreateStream: %v", err)
	}
	w.Write([]byte("data"))
	w.Close()
	r, err := a.OpenStream("b1")
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	buf := make([]byte, 4)
	r.Read(buf)
	r.Close()
	if string(buf) != "data" {
		t.Fatalf("got %q", buf)
	}
	names, _ := a.ListStreams()
	if len(names) != 1 {
		t.Fatalf("ListStreams: %v", names)
	}
}
