package main

import (
	"fmt"
	"math"
	"time"

	//tdblint:ignore secret-hygiene deterministic benchmark workload generation; no secret material
	"math/rand"

	"tdb"
)

// scanVsWriter is a closed loop of snapshot range scans through the
// prefetching iterator, beside an open-loop writer updating records of the
// same collection: reads beside writes on one layer.
type scanVsWriter struct {
	licences
	sz      sizes
	scanPos float64 // position of the next scan's start, as a share of the collection
	wrRng   *rand.Rand

	revs map[int64]uint64 // revision the writer was acknowledged, per touched id
}

func newScanVsWriter(seed int64, sz sizes) *scanVsWriter {
	return &scanVsWriter{
		licences: newLicences(seed, sz.records, true), sz: sz,
		scanPos: rand.New(rand.NewSource(seed)).Float64(),
		wrRng:   rand.New(rand.NewSource(seed + 7919)),
		revs:    map[int64]uint64{},
	}
}

func (w *scanVsWriter) clients() int      { return 1 }
func (w *scanVsWriter) load(e *env) error { return w.licences.load(e.db) }

// nextStart places the next scan. Starts step through the collection by the
// golden ratio from a seeded offset: they look random and cover the
// collection evenly, but successive ranges never overlap, so no scan finds
// part of its range cached by the one before. With independent random starts
// the amount of such reuse — and with it the scan rate — is a matter of luck
// over the ~90 scans of a run.
func (w *scanVsWriter) nextStart() int64 {
	const phi = 0.6180339887498949
	w.scanPos += phi
	w.scanPos -= math.Floor(w.scanPos)
	return int64(w.scanPos * float64(w.n-w.sz.scanLen+1))
}

// nextWrite picks the record the writer updates next: uniform over
// sz.writerSet records spread evenly through the collection, so every scan
// range holds its share of relocated records while the writer's working set
// (1 MiB) stays inside the cache budget. That bound is deliberate: TDB's
// object cache and location-map cache share one LRU pool that each layer
// guards with its own mutex, so once the pool evicts while a snapshot reader
// and a read-write transaction run side by side, the two mutate it
// concurrently (a fatal "concurrent map read and map write" in
// objectstore.lookupLocked). A workload must not crash; the defect is
// recorded in README.md for the PR that fixes it.
func (w *scanVsWriter) nextWrite() int64 {
	return int64(w.wrRng.Intn(w.sz.writerSet)) * int64(w.n/w.sz.writerSet)
}

func (w *scanVsWriter) client(e *env, _ int, rec *recorder) func() error {
	return func() error { return w.scan(e.db, rec, w.nextStart()) }
}

// scan reads scanLen consecutive records from start in Issued order and
// checks that exactly those arrive, in order, each with a valid payload.
func (w *scanVsWriter) scan(db *tdb.DB, rec *recorder, start int64) error {
	s := rec.now()
	txn := db.BeginReadOnly()
	rec.add(spBegin, s)
	defer txn.Abort()
	s = rec.now()
	h, err := txn.ReadCollection("licences", w.byIssued)
	if err != nil {
		return err
	}
	it, err := h.QueryRange(w.byIssued, tdb.IntKey(start), tdb.IntKey(start+int64(w.sz.scanLen)-1))
	if err != nil {
		return err
	}
	more := it.Next()
	rec.add(spQuery, s)
	want := start
	for ; more; more = it.Next() {
		s = rec.now()
		l, err := tdb.ReadAs[*Licence](it)
		rec.add(spDeref, s)
		if err != nil {
			it.Close()
			return fmt.Errorf("scan at %d: %w", want, err)
		}
		if err := l.check(want); err != nil {
			it.Close()
			return fmt.Errorf("%w: scan out of order or corrupt: %v", errViolation, err)
		}
		want++
	}
	s = rec.now()
	err = it.Close()
	rec.add(spIterClose, s)
	if err != nil {
		return err
	}
	if got := want - start; got != int64(w.sz.scanLen) {
		return fmt.Errorf("%w: scan from %d returned %d records, want %d", errViolation, start, got, w.sz.scanLen)
	}
	s = rec.now()
	err = txn.Commit(false)
	rec.add(spCommit, s)
	return err
}

// write is the writer's operation: bump one record's revision through the
// collection, in its own transaction.
func (w *scanVsWriter) write(db *tdb.DB, id int64, durable bool) error {
	txn := db.Begin()
	h, err := txn.WriteCollection("licences", w.indexers()...)
	if err != nil {
		txn.Abort()
		return err
	}
	it, err := h.QueryExact(w.byID, tdb.IntKey(id))
	if err != nil {
		txn.Abort()
		return err
	}
	if !it.Next() {
		it.Close()
		txn.Abort()
		return fmt.Errorf("%w: licence %d not found", errViolation, id)
	}
	l, err := tdb.WriteAs[*Licence](it)
	if err == nil {
		if err = l.check(id); err == nil {
			l.bump()
		}
	}
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = txn.Commit(durable)
	}
	if err != nil {
		txn.Abort()
		return err
	}
	w.revs[id] = l.revision()
	return nil
}

// run is the open-loop writer: one nondurable update commit every
// 1/writerRate seconds, each timed from the moment it was due, whether or
// not the store let it start then.
func (w *scanVsWriter) run(e *env, stop <-chan struct{}) writerResult {
	var res writerResult
	period := time.Second / time.Duration(w.sz.writerRate)
	timer := time.NewTimer(0)
	defer timer.Stop()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return res
		case <-timer.C:
		}
		if time.Since(due) > period {
			res.late++
		}
		res.attempted++
		if err := w.write(e.db, w.nextWrite(), false); err != nil {
			res.failed++
			logf("writer: %v", err)
		}
		res.lat = append(res.lat, int64(time.Since(due)))
	}
}

// warm runs a few scans and a burst of writer commits, one after the other.
func (w *scanVsWriter) warm(e *env) error {
	for i := 0; i < 2; i++ {
		if err := w.scan(e.db, nil, w.nextStart()); err != nil {
			return err
		}
	}
	for i := 0; i < w.sz.warmOps/4; i++ {
		if err := w.write(e.db, w.nextWrite(), false); err != nil {
			return err
		}
	}
	return nil
}

// check looks every record the writer touched up again: it must carry the
// revision of the last acknowledged update.
func (w *scanVsWriter) check(db *tdb.DB) error {
	txn := db.BeginReadOnly()
	defer txn.Abort()
	h, err := txn.ReadCollection("licences", w.byID)
	if err != nil {
		return err
	}
	for id, rev := range w.revs {
		l, err := w.lookup(h, nil, id)
		if err != nil {
			return err
		}
		if l.revision() != rev {
			return fmt.Errorf("%w: licence %d at revision %d, writer was acknowledged %d", errViolation, id, l.revision(), rev)
		}
	}
	return nil
}

// The crash check updates records 0..durableOps-1 once each.
func (w *scanVsWriter) durableOp(db *tdb.DB, i int) error { return w.write(db, int64(i%w.n), true) }

func (w *scanVsWriter) durableState(db *tdb.DB) (int64, error) {
	txn := db.BeginReadOnly()
	defer txn.Abort()
	h, err := txn.ReadCollection("licences", w.byID)
	if err != nil {
		return 0, err
	}
	var sum int64
	for id := int64(0); id < int64(min(w.sz.durableOps, w.n)); id++ {
		l, err := w.lookup(h, nil, id)
		if err != nil {
			return 0, err
		}
		sum += int64(l.revision())
	}
	return sum, nil
}

func (w *scanVsWriter) nextOIDs(e *env, n int) ([]tdb.ObjectID, error) {
	// The keys a scan would visit next: consecutive records from the next
	// random start.
	id := w.nextStart()
	return w.resolve(e.db, n, func() int64 {
		id = (id + 1) % int64(w.n)
		return id
	})
}
