package chunkstore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"tdb/internal/sec"
)

// Chunk reads (DESIGN.md §7.7, §7.8). A point Read is a batch of one: every
// read runs the same attempts over a set of plans, one per distinct chunk,
// and an attempt is three acts:
//
//  1. plan: one shared-lock section snapshots each chunk's map entry, pins
//     its segment and stamps the publication epoch (planAllLocked). A chunk
//     whose map node is not resident is faulted in under the exclusive
//     lock — map-node I/O only — and planned in that same section, which
//     is pure work;
//  2. execute: with no lock held, the records are fetched — a run of
//     records adjacent in one segment file with a single ReadAt into one
//     buffer — then validated against the Merkle tree and decrypted in
//     place, each record in the bytes its read filled (executeReads);
//  3. finish: one shared-lock section revalidates every plan against the
//     epoch or, if it moved, the chunk's current entry (finishLocked).
//
// A plan the finish act finds stale — the cleaner or a commit moved its
// record mid-read — goes round again. After readMissRetries attempts, an
// attempt runs all three acts inside one shared-lock section, where no
// publisher can move the record, so it cannot go stale. No read reads a
// user-data record with the store mutex held exclusively.
//
// A record is read into exactly one buffer, and that buffer becomes its
// plaintext: the CRC, type, chunk id and Merkle checks run over it, then
// the suite decrypts it in place. A run's records are subslices of the
// run's buffer; only a record still partly or wholly in the write-behind
// buffer gets a private buffer, filled from that buffer in the plan act, so
// the write-behind bytes themselves are never decrypted.
//
// Point reads and batches differ only at the edges: only a batch dedupes
// its ids and counts PrefetchedChunks. Concurrent readers of one chunk each
// do their own read; hot chunks are served a layer up, from the object
// store's decode table.

// Read returns the last committed state of cid (paper Figure 2). It signals
// ErrNotWritten for ids without committed state and ErrTampered if the
// stored chunk fails validation against the Merkle tree.
func (s *Store) Read(cid ChunkID) ([]byte, error) {
	p := []readPlan{{cid: cid}}
	s.readPlans(p)
	return p[0].data, p[0].err
}

// BatchRead is one chunk's result in a ReadBatch: the validated plaintext,
// or a per-chunk error with the same taxonomy as Read.
type BatchRead struct {
	CID  ChunkID
	Data []byte
	Err  error
}

// ReadBatch reads every chunk of cids, returning per-chunk results in the
// same order (duplicates are allowed and share one resolution). It exists
// for prefetching: per-chunk failures are reported rather than aborting the
// batch — a scan hint must never fail harder than the dereference it
// accelerates. Every distinct chunk is read, even one another reader is
// fetching at the same time: each result carries the chunk's data or an
// error. The results of one coalesced run are disjoint subslices of one
// backing array, each capped at its own record, so writing into one never
// touches another; but holding any of them keeps the whole run's buffer
// (up to coalesceMax bytes) alive, so a caller that keeps a result past
// decoding it copies it.
func (s *Store) ReadBatch(cids []ChunkID) []BatchRead {
	res := make([]BatchRead, len(cids))
	if len(cids) == 0 {
		return res
	}
	ps := make([]readPlan, 0, len(cids))
	planOf := make(map[ChunkID]int, len(cids))
	for _, cid := range cids {
		if _, dup := planOf[cid]; !dup {
			planOf[cid] = len(ps)
			ps = append(ps, readPlan{cid: cid})
		}
	}
	s.readPlans(ps)
	prefetched := int64(0)
	for i := range ps {
		if ps[i].err == nil {
			prefetched++
		}
	}
	s.prefetchedChunks.Add(prefetched)
	for i, cid := range cids {
		p := &ps[planOf[cid]]
		res[i] = BatchRead{CID: cid, Data: p.data, Err: p.err}
	}
	return res
}

// readMissRetries is how many attempts of a read may go stale before its
// next attempt holds the shared lock from plan to finish. Going stale twice
// in a row already requires back-to-back relocations of the same chunk
// mid-read.
const readMissRetries = 4

// coalesceMax bounds the byte size of one merged segment read, keeping its
// buffer bounded no matter how long an adjacent run is.
const coalesceMax = 1 << 20

// readPlan is one chunk's read, kept across attempts until it is done. An
// attempt's plan act fills in the snapshot the attempt validates against:
// the chunk's map entry, its pinned segment and the epoch stamp. Only when
// part of the record is still in the write-behind buffer does it also
// allocate the record's buffer, pre-filled with those bytes (they may be
// trimmed once the lock drops; flushed bytes below the buffer are immutable
// once published).
type readPlan struct {
	cid ChunkID

	e   entry
	seg *segment // pinned from the plan act to the finish act, else nil
	// buf is the record image, e.loc.Len bytes: nil until the execute act
	// reads a wholly file-backed record, private when the plan act copied
	// part of it from the write-behind buffer.
	buf []byte
	// fromFile is the prefix of the record the execute act reads from the
	// segment file; buf[fromFile:] was copied from the write-behind buffer.
	fromFile int64
	stamp    uint64

	// sum is the room the execute act digests the record's ciphertext
	// into, so checking it allocates nothing.
	sum [maxDigestSize]byte

	// data and err are the attempt's outcome, final once done is set.
	data []byte
	err  error
	done bool
}

// maxDigestSize is room for any suite's chunk digest (sec.Suite.Digest); a
// longer one would only allocate.
const maxDigestSize = 32

func (p *readPlan) finish(data []byte, err error) { p.data, p.err, p.done = data, err, true }

// readPlans runs attempts until every plan is done.
func (s *Store) readPlans(ps []readPlan) {
	for attempt := 0; ; attempt++ {
		if s.readAttempt(ps, attempt >= readMissRetries) {
			return
		}
	}
}

// readAttempt runs one attempt over the plans not yet done and reports
// whether all are done. With hold set, an attempt that needs no map node
// faulted in executes and finishes inside its planning section.
func (s *Store) readAttempt(ps []readPlan, hold bool) bool {
	s.mu.RLock()
	n, fault := s.planAllLocked(ps, false)
	if hold && !fault && n > 0 {
		s.readSlow.Add(1)
		s.executeHeld(ps, n)
		suspect := s.finishLocked(ps)
		s.mu.RUnlock()
		return s.settle(ps, suspect)
	}
	s.mu.RUnlock()
	if fault {
		s.mu.Lock()
		n, _ = s.planAllLocked(ps, true)
		s.mu.Unlock()
	}
	if n == 0 {
		// Every plan not pinned by the plan act is done.
		return true
	}
	s.executeReads(ps, n)
	s.mu.RLock()
	suspect := s.finishLocked(ps)
	s.mu.RUnlock()
	return s.settle(ps, suspect)
}

// planAllLocked runs the plan act for every plan not yet done and returns
// how many plans are pinned. Holding s.mu shared, it reports fault for the
// plans it cannot take: the map node is not resident, or the entry points
// outside the log. Holding s.mu exclusively, it faults each such plan's map
// path in (lm.get: map-node I/O, the only I/O a read does under the
// exclusive lock) and plans it in the same section; damage found then is
// current by construction, so the chunk is quarantined at once.
func (s *Store) planAllLocked(ps []readPlan, exclusive bool) (n int, fault bool) {
	closed := s.closed.Load()
	for i := range ps {
		p := &ps[i]
		switch {
		case p.seg != nil:
			n++
			continue
		case p.done:
			continue
		case closed:
			p.finish(nil, ErrClosed)
			continue
		}
		e, resident := s.lm.getCached(p.cid)
		if !resident {
			if !exclusive {
				fault = true
				continue
			}
			s.readSlow.Add(1)
			var err error
			if e, err = s.lm.get(p.cid); err != nil {
				p.finish(nil, err)
				continue
			}
		}
		switch err := s.planLocked(p, e); {
		case err == nil && p.seg != nil:
			n++
		case err != nil && exclusive:
			s.quarantine[p.cid] = err.Error()
			p.finish(nil, degradedReadErr(p.cid, err))
		case err != nil:
			fault = true
		}
	}
	return n, fault
}

// planLocked runs the plan act for p against its map entry e, under s.mu
// (shared suffices): pure work, no I/O. A definite outcome — never written,
// not allocated, or quarantined — finishes p. Otherwise p is pinned. It
// returns an ErrTampered error, leaving p as it was, when the entry points
// outside the log.
func (s *Store) planLocked(p *readPlan, e entry) error {
	if e.isEmpty() {
		if s.alloc.isAllocated(p.cid) {
			p.finish(nil, fmt.Errorf("%w: %d", ErrNotWritten, p.cid))
		} else {
			p.finish(nil, fmt.Errorf("%w: %d", ErrNotAllocated, p.cid))
		}
		return nil
	}
	if reason, ok := s.quarantine[p.cid]; ok {
		p.finish(nil, degradedReadErr(p.cid, fmt.Errorf("quarantined: %s (%w)", reason, ErrTampered)))
		return nil
	}
	seg, ok := s.segs.segs[e.loc.Seg]
	if !ok {
		return fmt.Errorf("%w: reference to missing segment %d", ErrTampered, e.loc.Seg)
	}
	if int64(e.loc.Off)+int64(e.loc.Len) > seg.size || e.loc.Len < recordHeaderSize {
		return fmt.Errorf("%w: record %v out of segment bounds", ErrTampered, e.loc)
	}
	p.e, p.stamp = e, s.locEpoch.Load()
	p.buf, p.fromFile = nil, int64(e.loc.Len)
	off := int64(e.loc.Off)
	if ss := s.segs; seg == ss.wbSeg && len(ss.wb) > 0 && off+p.fromFile > ss.wbOff {
		// Part of the record still lives in the write-behind buffer, which
		// may flush or rewind once the lock drops: copy that suffix into a
		// private buffer now, which the execute act then decrypts in place
		// — never ss.wb itself. The flushed prefix below wbOff is stable —
		// published record bytes are never rewritten, and rewind only
		// discards unpublished tails.
		p.buf = make([]byte, e.loc.Len)
		p.fromFile = 0
		if off < ss.wbOff {
			p.fromFile = ss.wbOff - off
		}
		if start := off + p.fromFile - ss.wbOff; start < int64(len(ss.wb)) {
			copy(p.buf[p.fromFile:], ss.wb[start:])
		}
	}
	// Pin the segment so the cleaner cannot close its file handle while the
	// execute act is using it (free defers the close to the last unpin).
	seg.readers.Add(1)
	p.seg = seg
	return nil
}

// executeReads runs the execute act for the n pinned plans. Pinned plans
// are sorted by (segment, offset) — distinct chunks never share a location,
// so the order is total — and each run of records that are physically
// adjacent in one segment file is fetched with a single ReadAt into one
// buffer, which the run's plans then share.
func (s *Store) executeReads(ps []readPlan, n int) {
	if n == 1 {
		for i := range ps {
			if ps[i].seg != nil {
				s.executeRead(&ps[i])
			}
		}
		return
	}
	run := make([]*readPlan, 0, n)
	for i := range ps {
		if ps[i].seg != nil {
			run = append(run, &ps[i])
		}
	}
	slices.SortFunc(run, func(a, b *readPlan) int {
		return cmp.Or(cmp.Compare(a.e.loc.Seg, b.e.loc.Seg), cmp.Compare(a.e.loc.Off, b.e.loc.Off))
	})
	for len(run) > 0 {
		k := 1
		for k < len(run) && canCoalesce(run[:k], run[k]) {
			k++
		}
		s.executeRun(run[:k])
		run = run[k:]
	}
}

// executeHeld is executeReads for an attempt that holds s.mu shared from
// its plan act to its finish act.
//
//tdblint:serial a read whose attempts went stale readMissRetries times reads its records under the shared lock so no publisher can move them mid-read; other readers still run beside it, only publishers wait
func (s *Store) executeHeld(ps []readPlan, n int) { s.executeReads(ps, n) }

// canCoalesce reports whether p extends the run: same segment, record
// starting exactly where the run ends, both sides fully file-backed (a plan
// whose record partly lives in the write-behind buffer has its own buffer
// and reads only its own prefix), and the merged read still within
// coalesceMax.
func canCoalesce(run []*readPlan, p *readPlan) bool {
	last := run[len(run)-1]
	if p.seg != last.seg || p.buf != nil || last.buf != nil {
		return false
	}
	if int64(last.e.loc.Off)+int64(last.e.loc.Len) != int64(p.e.loc.Off) {
		return false
	}
	runLen := int64(p.e.loc.Off) + int64(p.e.loc.Len) - int64(run[0].e.loc.Off)
	return runLen <= coalesceMax
}

// executeRun fetches one run. A run of several records pays a single
// segment read into one buffer, and each plan takes its record as a
// subslice of it, capped at the record's end; each plan then validates and
// decrypts individually, so one damaged record degrades only its own
// chunk.
func (s *Store) executeRun(run []*readPlan) {
	if len(run) > 1 {
		total := 0
		for _, p := range run {
			total += int(p.e.loc.Len)
		}
		big := make([]byte, total)
		if err := s.segs.fileReadAt(run[0].seg, big, int64(run[0].e.loc.Off)); err != nil {
			for _, p := range run {
				p.data, p.err = nil, err
			}
			return
		}
		off := 0
		for _, p := range run {
			end := off + int(p.e.loc.Len)
			p.buf = big[off:end:end]
			p.fromFile = 0 // the bytes are in hand; executeRead skips the file
			off = end
		}
		s.coalescedReads.Add(1)
		s.coalescedChunks.Add(int64(len(run)))
	}
	for _, p := range run {
		s.executeRead(p)
	}
}

// executeRead fetches whatever of p's record is not in hand, then parses,
// validates and decrypts it in its own buffer.
func (s *Store) executeRead(p *readPlan) {
	p.data, p.err = nil, nil
	if p.buf == nil {
		p.buf = make([]byte, p.e.loc.Len)
	}
	if p.fromFile > 0 {
		if p.err = s.segs.fileReadAt(p.seg, p.buf[:p.fromFile], int64(p.e.loc.Off)); p.err != nil {
			return
		}
	}
	typ, body, err := parseRecordBytes(p.e.loc, p.buf)
	if err != nil {
		p.err = err
		return
	}
	p.data, p.err = s.decryptChunkRecord(p.cid, p.e, typ, body, p.sum[:0])
}

// finishLocked runs the finish act under s.mu held shared: it unpins every
// pinned plan and revalidates its snapshot. A current plan is done with the
// outcome it read. A stale plan's outcome is discarded — it was read from
// bytes that may no longer be the chunk's current version — and the plan
// goes round again. It reports whether a current plan failed validation:
// settle confirms those under the exclusive lock.
func (s *Store) finishLocked(ps []readPlan) (suspect bool) {
	closed := s.closed.Load()
	for i := range ps {
		p := &ps[i]
		if p.seg == nil {
			continue
		}
		s.segs.unpinReaderLocked(p.seg)
		p.seg = nil
		reason, quarantined := s.quarantine[p.cid]
		switch {
		case closed:
			p.finish(nil, ErrClosed)
		case quarantined:
			// A scrub quarantined the chunk while the read was in flight.
			p.finish(nil, degradedReadErr(p.cid, fmt.Errorf("quarantined: %s (%w)", reason, ErrTampered)))
		case !s.currentLocked(p):
			p.data, p.err = nil, nil
		case errors.Is(p.err, ErrTampered) && !errors.Is(p.err, ErrIO):
			// Damage confined to this chunk's stored bytes degrades the
			// chunk rather than failing like whole-store tampering;
			// environmental I/O failures pass through untouched.
			suspect = true
		default:
			p.done = true
		}
	}
	return suspect
}

// currentLocked reports whether p's snapshot still describes the chunk's
// current version: no publication since the plan act, or — since most
// publications touch other chunks — the chunk's entry is unchanged.
func (s *Store) currentLocked(p *readPlan) bool {
	if s.locEpoch.Load() == p.stamp {
		return true
	}
	cur, resident := s.lm.getCached(p.cid)
	return resident && cur.loc == p.e.loc && sec.HashEqual(cur.hash, p.e.hash)
}

// settle confirms the validation failures finishLocked reported suspect,
// then reports whether every plan is done.
func (s *Store) settle(ps []readPlan, suspect bool) bool {
	done := true
	for i := range ps {
		p := &ps[i]
		if suspect && !p.done && p.err != nil {
			if err, ok := s.failTamperedRead(p.cid, p.e, p.err); ok {
				p.finish(nil, err)
			} else {
				p.err = nil
			}
		}
		done = done && p.done
	}
	return done
}

// failTamperedRead confirms a validation failure under the exclusive lock:
// if the failing snapshot still describes the chunk's current version, the
// chunk is quarantined, so later reads fail fast without touching storage,
// and the read fails degraded. done=false means the entry moved mid-read —
// the failure was read against a stale snapshot, not damage — and the plan
// goes round again.
func (s *Store) failTamperedRead(cid ChunkID, e entry, rerr error) (err error, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed, true
	}
	cur, err := s.lm.get(cid)
	if err != nil {
		return err, true
	}
	if cur.isEmpty() || cur.loc != e.loc || !sec.HashEqual(cur.hash, e.hash) {
		return nil, false
	}
	s.quarantine[cid] = rerr.Error()
	return degradedReadErr(cid, rerr), true
}

// checkChunkRecord validates a fetched record against the chunk's map entry
// — record type, chunk id, and the ciphertext's digest, the Merkle leaf —
// and returns the ciphertext. The digest is appended to sum, room the
// caller owns (nil allocates). Pure computation over the supplied bytes.
func (s *Store) checkChunkRecord(cid ChunkID, e entry, typ byte, body, sum []byte) ([]byte, error) {
	if typ != recWrite {
		return nil, fmt.Errorf("%w: chunk %d record at %v has type %d", ErrTampered, cid, e.loc, typ)
	}
	gotCid, ciphertext, err := parseWriteRecord(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	if gotCid != cid {
		return nil, fmt.Errorf("%w: record at %v names chunk %d, want %d", ErrTampered, e.loc, gotCid, cid)
	}
	if !sec.HashEqual(s.suite.Digest(sum, ciphertext), e.hash) {
		return nil, fmt.Errorf("%w: chunk %d fails digest validation", ErrTampered, cid)
	}
	return ciphertext, nil
}

// decryptChunkRecord is checkChunkRecord followed by decryption in place:
// the chunk's validated plaintext, a subslice of body, which the caller
// must own.
func (s *Store) decryptChunkRecord(cid ChunkID, e entry, typ byte, body, sum []byte) ([]byte, error) {
	ciphertext, err := s.checkChunkRecord(cid, e, typ, body, sum)
	if err != nil {
		return nil, err
	}
	plain, err := s.suite.Decrypt(ciphertext)
	if err != nil {
		return nil, fmt.Errorf("%w: decrypting chunk %d: %v", ErrTampered, cid, err)
	}
	return plain, nil
}

// readChunkLocked fetches the stored record of chunk version e and runs
// check over it: checkChunkRecord or decryptChunkRecord. Only the full
// audits — Verify, Scrub, Snapshot.ForEach and Diff — read user-data
// records this way, under the store mutex held exclusively.
func (s *Store) readChunkLocked(cid ChunkID, e entry, check func(ChunkID, entry, byte, []byte, []byte) ([]byte, error)) ([]byte, error) {
	typ, body, err := s.segs.readRecord(e.loc)
	if err != nil {
		return nil, err
	}
	return check(cid, e, typ, body, nil)
}
