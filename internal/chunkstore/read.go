package chunkstore

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"tdb/internal/sec"
)

// Chunk reads (DESIGN.md §7.7, §7.8). A point Read is a batch of one: every
// read runs over a set of plans, one per distinct chunk, in two acts:
//
//  1. plan: one shared-lock section snapshots each chunk's map entry, pins
//     its segment's file handle and copies any suffix still in the
//     write-behind buffer (planAllLocked). A chunk whose map node is not
//     resident is faulted in under the exclusive lock — map-node I/O only
//     — and planned in that same section, which is pure work;
//  2. execute: with no lock held, the records are fetched — a run of
//     records adjacent in one segment file with a single ReadAt into one
//     buffer — then validated against the Merkle tree, decrypted in place,
//     each record in the bytes its read filled, and unpinned
//     (executeReads).
//
// A read is linearized at its plan act: it returns the chunk's committed
// state at that point, even if a commit or the cleaner moves the record
// before the execute act reads it. Flushed record bytes are never
// rewritten, and a freed segment's handle stays open while a read holds it
// (segment.refs), so the planned bytes are still there. The object store
// re-checks its version table after every chunk read, and its 2PL locks
// exclude writers, so a plan-time result is never published as newer than
// it is. The store mutex is taken again only to confirm a validation
// failure (failTamperedRead); a failure whose entry moved since the plan
// is no damage, and only that plan goes round again. The audits plan from
// a snapshot instead and run only the execute act (auditWalk). No read,
// audits included, reads a user-data record with the store mutex held.
//
// A record is read into exactly one buffer, and that buffer becomes its
// plaintext: the length, type and chunk id checks run over it, then the
// suite opens it in place against its Merkle leaf, authenticating and
// decrypting in one pass (sec.Suite.Open). The record's CRC is not checked:
// the leaf covers every byte the CRC does and more, and the CRC exists only
// for recovery's search for the end of the log (record.go). Every buffer
// has sec.OpenSlack bytes of room past its last record, where Open writes
// the tag; a record inside a run borrows the next record's first bytes,
// which are put back. A record's buffer is carved from its read's arena,
// and a run's records are subslices of the run's; only a record still
// partly or wholly in the write-behind buffer gets a private buffer, filled
// from that buffer in the plan act, so the write-behind bytes themselves
// are never opened.
//
// A point Read owns its buffer, which becomes the caller's; everything else
// borrows. VisitBatch and every audit walk borrow an arena — the plans and
// the one buffer the records are carved from — from the store's bounded
// free list, show every result to their visitor, and give it back; an
// audit reuses it for each leaf. A scan that unpickles each record in its
// visit, or an audit that only checks it, allocates no record buffers, and
// no plans, once the list is warm. ReadBatch copies its results out of
// VisitBatch. A point read does not borrow: its caller keeps the bytes, so
// a lent buffer would cost a copy besides, and a prototype that pooled
// point reads lost the read-cold benchmark in 7 of 10 pairs.
//
// Point reads and batches differ only at the edges: only a batch dedupes
// its ids — by sorting them, with no map — and counts PrefetchedChunks.
// Concurrent readers of one chunk each do their own read; hot chunks are
// served a layer up, from the object store's decode table.

// Read returns the last committed state of cid (paper Figure 2). It signals
// ErrNotWritten for ids without committed state and ErrTampered if the
// stored chunk fails validation against the Merkle tree.
func (s *Store) Read(cid ChunkID) ([]byte, error) {
	a := arena{plans: []readPlan{{cid: cid}}}
	s.readPlans(&a)
	return a.plans[0].data, a.plans[0].err
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
// error. The results are the caller's: each is a copy out of VisitBatch.
func (s *Store) ReadBatch(cids []ChunkID) []BatchRead {
	res := make([]BatchRead, len(cids))
	s.VisitBatch(cids, func(i int, data []byte, err error) {
		res[i] = BatchRead{CID: cids[i], Data: bytes.Clone(data), Err: err}
	})
	return res
}

// VisitBatch reads every chunk of cids as ReadBatch does and calls visit
// once for each cids[i], in order of i, with the chunk's plaintext or its
// error (a duplicate id shows every visit the same bytes). data is lent,
// not given: it lives in an arena the store takes back once the last visit
// returns, so visit must copy whatever it keeps.
func (s *Store) VisitBatch(cids []ChunkID, visit func(i int, data []byte, err error)) {
	if len(cids) == 0 {
		return
	}
	ids := slices.Clone(cids)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	a := s.arenas.take()
	ps := a.plansFor(len(ids))
	for i, cid := range ids {
		ps[i].cid = cid
	}
	s.readPlans(a)
	prefetched := int64(0)
	for i := range ps {
		if ps[i].err == nil {
			prefetched++
		}
	}
	s.prefetchedChunks.Add(prefetched)
	for i, cid := range cids {
		j, _ := slices.BinarySearch(ids, cid)
		visit(i, ps[j].data, ps[j].err)
	}
	s.arenas.give(a)
}

// coalesceMax bounds the byte size of one merged segment read, keeping its
// buffer bounded no matter how long an adjacent run is.
const coalesceMax = 1 << 20

// An arena is what one read borrows: its plans, and the buffer its records
// are carved from, each with sec.OpenSlack bytes to spare before the next.
type arena struct {
	plans []readPlan
	buf   []byte // the buffer records are carved from
	free  []byte // what is left of buf to carve
}

// The store's arenaList keeps at most arenaKeep arenas between reads, each
// with a buffer of at most arenaMaxBuf bytes — a full run and its slack —
// and at most arenaMaxPlans plans: about 5 MiB per store at most, and a few
// scan windows' worth in practice. A read that needs more gets what it
// needs, and the list does not keep it. A lent arena's buffer and plan
// slices are at least arenaMinBuf bytes and arenaMinPlans plans, so that a
// scan's windows of varying sizes reuse one rather than replacing it.
const (
	arenaKeep     = 4
	arenaMaxBuf   = coalesceMax + sec.OpenSlack
	arenaMaxPlans = 1024
	arenaMinBuf   = 64 << 10
	arenaMinPlans = 64
)

// arenaList is the store's bounded free list of arenas.
type arenaList struct {
	mu   sync.Mutex
	free []*arena
}

// take lends an arena: a kept one, or a new one with a buffer of
// arenaMinBuf bytes.
func (l *arenaList) take() *arena {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		a := l.free[n-1]
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return a
	}
	l.mu.Unlock()
	a := &arena{buf: make([]byte, arenaMinBuf)}
	a.free = a.buf
	return a
}

// give takes back an arena take lent, reset, and keeps it if it is within
// the bounds and fewer than arenaKeep are kept.
func (l *arenaList) give(a *arena) {
	a.reset()
	if cap(a.buf) > arenaMaxBuf || cap(a.plans) > arenaMaxPlans {
		return
	}
	l.mu.Lock()
	if len(l.free) < arenaKeep {
		l.free = append(l.free, a)
	}
	l.mu.Unlock()
}

// plansFor returns n zeroed plans, the arena's.
func (a *arena) plansFor(n int) []readPlan {
	if cap(a.plans) < n {
		a.plans = make([]readPlan, max(n, arenaMinPlans))
	}
	a.plans = a.plans[:n]
	return a.plans
}

// reset zeroes the arena's plans, which drops their references to segments,
// map hashes and results, and makes its whole buffer free to carve again.
func (a *arena) reset() {
	clear(a.plans)
	a.plans = a.plans[:0]
	a.free = a.buf[:cap(a.buf)]
}

// reserve makes room to carve n more bytes. When what is left of the
// buffer is too small, the arena makes a new one, of n bytes or the size of
// the one it replaces if that is larger; records carved from the old one
// keep it alive as long as they need it.
func (a *arena) reserve(n int) {
	if len(a.free) < n {
		a.buf = make([]byte, max(n, cap(a.buf)))
		a.free = a.buf
	}
}

// get carves a buffer of n bytes with sec.OpenSlack more capacity from room
// reserve made.
func (a *arena) get(n int) []byte {
	b := a.free[: n : n+sec.OpenSlack]
	a.free = a.free[n+sec.OpenSlack:]
	return b
}

// readPlan is one chunk's read. Its plan act fills in the snapshot the read
// validates against: the chunk's map entry and its pinned segment. Only when
// part of the record is still in the write-behind buffer does it also
// allocate the record's buffer, pre-filled with those bytes (they may be
// flushed once the lock drops; flushed bytes are immutable once
// published).
type readPlan struct {
	cid ChunkID

	e   entry
	seg *segment // pinned from the plan act through the execute act, else nil
	// buf is the record image, e.loc.Len bytes with at least sec.OpenSlack
	// more capacity: nil until the execute act reads a wholly file-backed
	// record, private when the plan act copied part of it from the
	// write-behind buffer.
	buf []byte
	// fromFile is the prefix of the record the execute act reads from the
	// segment file; buf[fromFile:] was copied from the write-behind buffer.
	fromFile int64

	// ciphertext stops the execute act at the validated ciphertext
	// (checkChunkRecord), which it leaves in ct instead of data: audits
	// that copy or only check records.
	ciphertext bool
	ct         []byte

	// data and err are the read's outcome, final once done is set.
	data []byte
	err  error
	done bool
}

func (p *readPlan) finish(data []byte, err error) { p.data, p.err, p.done = data, err, true }

// readPlans plans and executes a's plans until every one is done, with
// record buffers carved from a (see executeReads): only a plan whose
// validation failure settle finds was against a moved entry goes round
// again.
func (s *Store) readPlans(a *arena) {
	ps := a.plans
	for {
		s.mu.RLock()
		n, fault := s.planAllLocked(ps, false)
		s.mu.RUnlock()
		if fault {
			s.mu.Lock()
			n, _ = s.planAllLocked(ps, true)
			s.mu.Unlock()
		}
		if n == 0 {
			// Every plan not pinned by the plan act is done.
			return
		}
		s.executeReads(a, n)
		if s.settle(ps) {
			return
		}
	}
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
	return s.pinLocked(p, e)
}

// pinLocked plans p's read of stored version e, under s.mu (shared
// suffices): the bounds check, the write-behind copy and the segment pin.
// It returns an ErrTampered error, leaving p as it was, when e points
// outside the log.
func (s *Store) pinLocked(p *readPlan, e entry) error {
	seg, ok := s.segs.segs[e.loc.Seg]
	if !ok {
		return fmt.Errorf("%w: reference to missing segment %d", ErrTampered, e.loc.Seg)
	}
	if int64(e.loc.Off)+int64(e.loc.Len) > seg.size || e.loc.Len < recordHeaderSize {
		return fmt.Errorf("%w: record %v out of segment bounds", ErrTampered, e.loc)
	}
	p.e = e
	p.buf, p.fromFile = nil, int64(e.loc.Len)
	off := int64(e.loc.Off)
	if off+p.fromFile > seg.flushed {
		// Part of the record, or all of it — the segment's file may not
		// exist yet — still lives in the segment's write-behind buffer,
		// which may flush once the lock drops: copy that suffix into a
		// private buffer now, which the execute act then decrypts in place
		// — never seg.buf itself. The flushed prefix is stable: record
		// bytes that reached the file are never rewritten.
		p.buf = make([]byte, e.loc.Len, e.loc.Len+sec.OpenSlack)
		p.fromFile = max(seg.flushed-off, 0)
		copy(p.buf[p.fromFile:], seg.buf[off+p.fromFile-seg.flushed:])
	}
	// Pin the segment's file handle: if the cleaner frees the segment before
	// the execute act is done with it, this read's release closes it.
	seg.refs.Add(1)
	p.seg = seg
	return nil
}

// executeReads runs the execute act for the n pinned plans of a and unpins
// them. Pinned plans are sorted by (segment, offset) — distinct chunks
// never share a location, so the order is total — and each run of records
// that are physically adjacent in one segment file is fetched with a
// single ReadAt into one buffer, which the run's plans then share. Buffers
// are carved from a, which first reserves room for every record with its
// slack.
func (s *Store) executeReads(a *arena, n int) {
	ps := a.plans
	need := 0
	for i := range ps {
		if ps[i].seg != nil && ps[i].buf == nil {
			need += int(ps[i].e.loc.Len) + sec.OpenSlack
		}
	}
	a.reserve(need)
	if n == 1 {
		for i := range ps {
			if ps[i].seg != nil {
				s.executeRead(a, &ps[i])
			}
		}
	} else {
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
			s.executeRun(a, run[:k])
			run = run[k:]
		}
	}
	for i := range ps {
		if ps[i].seg != nil {
			ps[i].seg.release()
			ps[i].seg = nil
		}
	}
}

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
// subslice of it, whose capacity runs on into the next records and the
// buffer's slack; each plan then validates and opens individually, so one
// damaged record degrades only its own chunk.
func (s *Store) executeRun(a *arena, run []*readPlan) {
	if len(run) > 1 {
		total := 0
		for _, p := range run {
			total += int(p.e.loc.Len)
		}
		big := a.get(total)
		if err := s.segs.fileReadAt(run[0].seg, big, int64(run[0].e.loc.Off)); err != nil {
			for _, p := range run {
				p.data, p.err = nil, err
			}
			return
		}
		off := 0
		for _, p := range run {
			end := off + int(p.e.loc.Len)
			p.buf = big[off:end]
			p.fromFile = 0 // the bytes are in hand; executeRead skips the file
			off = end
		}
		s.coalescedReads.Add(1)
		s.coalescedChunks.Add(int64(len(run)))
	}
	for _, p := range run {
		s.executeRead(a, p)
	}
}

// executeRead fetches whatever of p's record is not in hand, then parses,
// validates and opens it in its own buffer: the run's or the plan act's,
// else one carved from a.
func (s *Store) executeRead(a *arena, p *readPlan) {
	p.data, p.err = nil, nil
	if p.buf == nil {
		p.buf = a.get(int(p.e.loc.Len))
	}
	if p.fromFile > 0 {
		if p.err = s.segs.fileReadAt(p.seg, p.buf[:p.fromFile], int64(p.e.loc.Off)); p.err != nil {
			return
		}
	}
	typ, body, err := parseRecordBytes(p.e.loc, p.buf)
	switch {
	case err != nil:
		p.err = err
	case p.ciphertext:
		p.ct, p.err = s.checkChunkRecord(p.cid, p.e, typ, body)
	default:
		p.data, p.err = s.openChunkRecord(p.cid, p.e, typ, body)
	}
}

// settle ends every executed plan with the outcome it read, except a
// validation failure, which failTamperedRead confirms under the exclusive
// lock; settle reports whether every plan is done.
func (s *Store) settle(ps []readPlan) bool {
	done := true
	for i := range ps {
		p := &ps[i]
		switch {
		case p.done:
		case errors.Is(p.err, ErrTampered) && !errors.Is(p.err, ErrIO):
			// Damage confined to this chunk's stored bytes degrades the
			// chunk rather than failing like whole-store tampering;
			// environmental I/O failures pass through untouched.
			if err, ok := s.failTamperedRead(p.cid, p.e, p.err); ok {
				p.finish(nil, err)
			} else {
				p.err, done = nil, false
			}
		default:
			p.done = true
		}
	}
	return done
}

// failTamperedRead confirms a validation failure under the exclusive lock:
// if the failing snapshot still describes the chunk's current version, the
// chunk is quarantined, so later reads fail fast without touching storage,
// and the read fails degraded. done=false means the entry moved since the
// plan act — a commit replaced the damaged version, or the cleaner moved
// the record — so the failure is not the current version's, and the plan
// goes round again.
func (s *Store) failTamperedRead(cid ChunkID, e entry, rerr error) (err error, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed, true
	}
	switch current, err := s.namesLocked(cid, e); {
	case err != nil:
		return err, true
	case !current:
		return nil, false
	}
	s.quarantine[cid] = rerr.Error()
	return degradedReadErr(cid, rerr), true
}

// namesLocked reports whether the current map still names version e of cid:
// the same location and digest. Caller holds s.mu exclusively (the lookup
// may fault the map path in).
func (s *Store) namesLocked(cid ChunkID, e entry) (bool, error) {
	cur, err := s.lm.get(cid)
	return err == nil && !cur.isEmpty() && cur.loc == e.loc && sec.HashEqual(cur.hash, e.hash), err
}

// chunkCiphertext checks a fetched record's type and chunk id against the
// chunk's map entry and returns its ciphertext. Pure computation over the
// supplied bytes.
func chunkCiphertext(cid ChunkID, e entry, typ byte, body []byte) ([]byte, error) {
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
	return ciphertext, nil
}

// openChunkRecord validates a fetched record against the chunk's map entry
// — record type, chunk id, and the ciphertext against its Merkle leaf — and
// decrypts it in place, returning the plaintext, a subslice of body capped
// at its own end; the caller must own body. Open may use the sec.OpenSlack
// bytes past the record, the next record's in a run: they are put back.
func (s *Store) openChunkRecord(cid ChunkID, e entry, typ byte, body []byte) ([]byte, error) {
	ciphertext, err := chunkCiphertext(cid, e, typ, body)
	if err != nil {
		return nil, err
	}
	var saved [sec.OpenSlack]byte
	tail := ciphertext[len(ciphertext):min(cap(ciphertext), len(ciphertext)+sec.OpenSlack)]
	copy(saved[:], tail)
	plain, err := s.suite.Open(ciphertext, e.hash)
	copy(tail, saved[:])
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %d fails digest validation: %v", ErrTampered, cid, err)
	}
	return plain[:len(plain):len(plain)], nil
}

// checkChunkRecord is openChunkRecord for a caller that keeps the
// ciphertext — an audit, the cleaner: it checks the record against its leaf
// with sec.Suite.Check, which decrypts nothing under the hashing suites,
// and returns the validated ciphertext, a subslice of body, untouched.
func (s *Store) checkChunkRecord(cid ChunkID, e entry, typ byte, body []byte) ([]byte, error) {
	ciphertext, err := chunkCiphertext(cid, e, typ, body)
	if err != nil {
		return nil, err
	}
	if err := s.suite.Check(ciphertext, e.hash); err != nil {
		return nil, fmt.Errorf("%w: chunk %d fails digest validation: %v", ErrTampered, cid, err)
	}
	return ciphertext, nil
}
