package main

import (
	"sync/atomic"
	"time"

	"tdb/internal/platform"
)

// syncDelay is the modelled device flush: every File.Sync and Store.Sync
// sleeps this long. A real fsync in a shared sandbox does not repeat from
// run to run, and with a free sync the harden path (and anything that
// shares or avoids syncs) would be invisible in wall-clock.
const syncDelay = 1000 * time.Microsecond

// ioCounts is a snapshot of the device counters.
type ioCounts struct {
	reads, readBytes   int64
	writes, writeBytes int64
	syncs, syncWaitNs  int64
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{
		reads: c.reads - o.reads, readBytes: c.readBytes - o.readBytes,
		writes: c.writes - o.writes, writeBytes: c.writeBytes - o.writeBytes,
		syncs: c.syncs - o.syncs, syncWaitNs: c.syncWaitNs - o.syncWaitNs,
	}
}

// device is the benchmark's untrusted store: an in-memory store that counts
// every read, write and sync, charges the fixed flush delay, and records a
// span around each call while a tracer is attached. It is the `platform`
// layer of the per-layer metrics.
type device struct {
	inner platform.UntrustedStore
	delay time.Duration

	reads, readBytes   atomic.Int64
	writes, writeBytes atomic.Int64
	syncs, syncWaitNs  atomic.Int64

	tr atomic.Pointer[tracer]
}

func newDevice(delay time.Duration) *device {
	return &device{inner: platform.NewMemStore(), delay: delay}
}

// trace attaches (or, with nil, detaches) the tracer device spans go to.
func (d *device) trace(tr *tracer) { d.tr.Store(tr) }

func (d *device) counts() ioCounts {
	return ioCounts{
		reads: d.reads.Load(), readBytes: d.readBytes.Load(),
		writes: d.writes.Load(), writeBytes: d.writeBytes.Load(),
		syncs: d.syncs.Load(), syncWaitNs: d.syncWaitNs.Load(),
	}
}

// storedBytes is what the device holds: the size of every file (log
// segments, superblock, counter).
func (d *device) storedBytes() (int64, error) {
	names, err := d.inner.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		f, err := d.inner.Open(name)
		if err != nil {
			return 0, err
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			return 0, err
		}
		total += size
	}
	return total, nil
}

func (d *device) sync(inner func() error) error {
	start := time.Now()
	time.Sleep(d.delay)
	err := inner()
	d.syncs.Add(1)
	d.syncWaitNs.Add(int64(time.Since(start)))
	d.tr.Load().device(spDevSync, start)
	return err
}

// Create implements platform.UntrustedStore.
func (d *device) Create(name string) (platform.File, error) {
	f, err := d.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &deviceFile{d: d, inner: f}, nil
}

// Open implements platform.UntrustedStore.
func (d *device) Open(name string) (platform.File, error) {
	f, err := d.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &deviceFile{d: d, inner: f}, nil
}

// Remove implements platform.UntrustedStore.
func (d *device) Remove(name string) error { return d.inner.Remove(name) }

// List implements platform.UntrustedStore.
func (d *device) List() ([]string, error) { return d.inner.List() }

// Sync implements platform.UntrustedStore.
func (d *device) Sync() error { return d.sync(d.inner.Sync) }

type deviceFile struct {
	d     *device
	inner platform.File
}

func (f *deviceFile) ReadAt(p []byte, off int64) (int, error) {
	tr := f.d.tr.Load()
	start := tr.deviceStart()
	n, err := f.inner.ReadAt(p, off)
	f.d.reads.Add(1)
	f.d.readBytes.Add(int64(n))
	tr.device(spDevRead, start)
	return n, err
}

func (f *deviceFile) WriteAt(p []byte, off int64) (int, error) {
	tr := f.d.tr.Load()
	start := tr.deviceStart()
	n, err := f.inner.WriteAt(p, off)
	f.d.writes.Add(1)
	f.d.writeBytes.Add(int64(n))
	tr.device(spDevWrite, start)
	return n, err
}

func (f *deviceFile) Size() (int64, error)      { return f.inner.Size() }
func (f *deviceFile) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *deviceFile) Sync() error               { return f.d.sync(f.inner.Sync) }
func (f *deviceFile) Close() error              { return f.inner.Close() }
