package chunkstore

// Batch reads: the scan path's counterpart to the commit pipeline and the
// off-mutex point read (DESIGN.md §7.8). An iterator's materialized result
// set is a perfect prefetch plan — every chunk id it will dereference is
// known up front — so ReadBatch turns a window of those ids into a few large
// off-mutex reads:
//
//  1. one short shared-lock section plans every chunk with the same
//     three-act machinery point reads use (planReadLocked), paying the lock
//     acquisition once per window instead of once per chunk;
//  2. plans sorted by (segment, offset) are coalesced: runs of records that
//     are physically adjacent in one segment file become a single large
//     ReadAt, split back into records in memory (a fresh sequentially
//     loaded collection reads at near raw-segment bandwidth);
//  3. the coalesced reads run one after another on the calling goroutine,
//     each plan validating, decrypting and completing through finishRead —
//     the same epoch/entry revalidation as a point read, so a cleaner
//     relocation or commit mid-batch can never return a stale or torn
//     plaintext;
//  4. plans the revalidation rejects, chunks whose map node was not
//     resident, and planning-time damage all fall back to Read, whose
//     singleflight and quarantine protocol already handle every slow case.
//
// Batches register their chunks in the same singleflight table point reads
// use: a point read of a chunk a batch is fetching follows the batch's
// flight instead of paying the same segment I/O, and a batch skips any
// chunk another reader already has in flight (a prefetch hint loses nothing
// by not duplicating the work). Without this, N identical scanners in convoy
// would each pay the full disk cost of the same window.
//
// The prefetch pipeline and the ordinary read path meet a layer up: the
// object store decodes a batch's results into its decode table, where the
// iterator's dereference a moment later finds them.

// BatchRead is one chunk's result in a ReadBatch: the validated plaintext,
// or a per-chunk error with the same taxonomy as Read.
type BatchRead struct {
	CID  ChunkID
	Data []byte
	Err  error
}

// coalesceMax bounds the byte size of one merged segment read, keeping its
// buffer (and the latency before its first record is delivered) bounded no
// matter how long an adjacent run is.
const coalesceMax = 1 << 20

// batchTask is one segment read of a batch: either a single plan, or a run
// of plans whose records are physically adjacent in one segment, fetched
// with a single ReadAt.
type batchTask struct {
	plans []*readPlan
	idxs  []int // result indices, parallel to plans
}

// ReadBatch reads every chunk of cids, returning per-chunk results in the
// same order (duplicates are allowed and share one resolution). It exists
// for prefetching: per-chunk failures are reported rather than aborting the
// batch — a scan hint must never fail harder than the dereference it
// accelerates. A chunk another reader already has in flight comes back with
// nil Data and nil Err: a prefetch must not pay for the same bytes twice.
func (s *Store) ReadBatch(cids []ChunkID) []BatchRead {
	res := make([]BatchRead, len(cids))
	for i, cid := range cids {
		res[i].CID = cid
	}
	if len(cids) == 0 {
		return res
	}
	// Collapse duplicates onto one pending slot each (aliases copy its
	// result at the end).
	pending := make([]int, 0, len(cids))
	first := make(map[ChunkID]int, len(cids))
	var aliases [][2]int
	for i, cid := range cids {
		if j, dup := first[cid]; dup {
			aliases = append(aliases, [2]int{i, j})
			continue
		}
		first[cid] = i
		pending = append(pending, i)
	}
	// Plan every chunk under one shared-lock section, claiming each chunk's
	// singleflight slot (chunks already in flight elsewhere drop out here).
	plans, planIdxs, slow := s.planBatch(pending, res)
	// Coalesce adjacent plans and fetch, validate and decrypt each run in
	// turn. Every plan completes through finishRead (which also releases
	// its segment pin) and releases its flight.
	for _, t := range coalescePlans(plans, planIdxs) {
		s.runBatchTask(t, res)
	}
	// Anything that could not complete off-mutex — non-resident map nodes,
	// revalidation losses, planning-time damage — takes the point-read path,
	// which owns the retry, singleflight, and quarantine protocols.
	for _, i := range slow {
		res[i].Data, res[i].Err = s.Read(res[i].CID)
	}
	for _, i := range pending {
		if res[i].Err == nil && res[i].Data != nil {
			s.prefetchedChunks.Add(1)
		}
	}
	for _, a := range aliases {
		res[a[0]].Data, res[a[0]].Err = res[a[1]].Data, res[a[1]].Err
	}
	return res
}

// planBatch snapshots a plan for every pending index under one shared-lock
// section. Definite per-chunk errors (not written, quarantined, closed) are
// recorded directly in res; chunks needing the exclusive path (map node not
// resident) or the quarantine protocol (planning-time damage) are returned
// as slow indices for the point-read fallback. Planned chunks claim their
// singleflight slot (lock order Store.mu → flightShard.mu, the commit
// path's order); a chunk some other reader is already fetching is skipped —
// its result slot stays (nil, nil).
func (s *Store) planBatch(pending []int, res []BatchRead) (plans []*readPlan, planIdxs, slow []int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		for _, i := range pending {
			res[i].Err = ErrClosed
		}
		return nil, nil, nil
	}
	for _, i := range pending {
		p, err := s.planReadLocked(res[i].CID)
		switch {
		case err != nil && p == nil:
			res[i].Err = err
		case err != nil || p == nil:
			// Damaged entry (non-nil plan, no pin taken) or non-resident map
			// node: both belong to the locked point-read machinery.
			slow = append(slow, i)
		default:
			if p.flight = s.flights.tryClaim(p.cid); p.flight == nil {
				// Another reader is fetching this chunk right now; drop the
				// plan (and its segment pin) rather than duplicate the I/O.
				s.segs.unpinReaderLocked(p.seg)
				continue
			}
			plans = append(plans, p)
			planIdxs = append(planIdxs, i)
		}
	}
	return plans, planIdxs, slow
}

// coalescePlans groups plans into segment reads, merging runs of records
// that are physically adjacent in one segment file into a single task
// fetched with one large ReadAt. Only fully file-backed plans coalesce: a
// plan whose record still partially lives in the write-behind buffer
// already carries those bytes and reads only its own prefix.
func coalescePlans(plans []*readPlan, idxs []int) []batchTask {
	order := make([]int, len(plans))
	for i := range order {
		order[i] = i
	}
	sortPlanOrder(order, plans)
	var tasks []batchTask
	for _, oi := range order {
		p := plans[oi]
		if n := len(tasks); n > 0 && canCoalesce(tasks[n-1], p) {
			tasks[n-1].plans = append(tasks[n-1].plans, p)
			tasks[n-1].idxs = append(tasks[n-1].idxs, idxs[oi])
			continue
		}
		tasks = append(tasks, batchTask{plans: []*readPlan{p}, idxs: []int{idxs[oi]}})
	}
	return tasks
}

// sortPlanOrder sorts plan indices by (segment, offset) — insertion sort,
// since windows are small and typically already log-ordered.
func sortPlanOrder(order []int, plans []*readPlan) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && planLess(plans[order[j]], plans[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

func planLess(a, b *readPlan) bool {
	if a.e.loc.Seg != b.e.loc.Seg {
		return a.e.loc.Seg < b.e.loc.Seg
	}
	return a.e.loc.Off < b.e.loc.Off
}

// canCoalesce reports whether p extends the task's run: same segment,
// record starting exactly where the run ends, both sides fully file-backed,
// and the merged read still within the size bound.
func canCoalesce(t batchTask, p *readPlan) bool {
	last := t.plans[len(t.plans)-1]
	if p.seg != last.seg || p.fromFile != int64(len(p.buf)) || last.fromFile != int64(len(last.buf)) {
		return false
	}
	if int64(last.e.loc.Off)+int64(last.e.loc.Len) != int64(p.e.loc.Off) {
		return false
	}
	first := t.plans[0]
	runLen := int64(p.e.loc.Off) + int64(p.e.loc.Len) - int64(first.e.loc.Off)
	return runLen <= coalesceMax
}

// runBatchTask fetches one task. A coalesced run pays a single large
// segment read and splits the bytes back into the member plans' buffers;
// each member then validates and completes individually, so one damaged
// record in a run degrades only its own chunk.
func (s *Store) runBatchTask(t batchTask, res []BatchRead) {
	if len(t.plans) > 1 {
		total := 0
		for _, p := range t.plans {
			total += len(p.buf)
		}
		big := make([]byte, total)
		if err := s.segs.fileReadAt(t.plans[0].seg, big, int64(t.plans[0].e.loc.Off)); err != nil {
			// The merged read failed as a whole; complete every member with
			// the I/O error (finishRead releases the segment pins).
			for i, p := range t.plans {
				s.completeBatchPlan(p, nil, err, t.idxs[i], res)
			}
			return
		}
		off := 0
		for _, p := range t.plans {
			copy(p.buf, big[off:off+len(p.buf)])
			p.fromFile = 0 // bytes are in hand; executeRead skips the file
			off += len(p.buf)
		}
		s.coalescedReads.Add(1)
		s.coalescedChunks.Add(int64(len(t.plans)))
	}
	for i, p := range t.plans {
		plain, rerr := s.executeRead(p)
		s.completeBatchPlan(p, plain, rerr, t.idxs[i], res)
	}
}

// completeBatchPlan revalidates one plan's outcome, releasing
// the flight the plan claimed. A stale plan — the cleaner or a commit moved
// the record mid-batch — abandons its flight first (following it from the
// fallback would deadlock) and retries through the full point-read path,
// whose singleflight coalesces it with any concurrent reader of the chunk.
func (s *Store) completeBatchPlan(p *readPlan, plain []byte, rerr error, idx int, res []BatchRead) {
	data, err, done := s.finishRead(p, plain, rerr)
	if !done {
		if p.flight != nil {
			s.flights.abandon(p.cid, p.flight)
			p.flight = nil
		}
		data, err = s.Read(p.cid)
	}
	if p.flight != nil {
		s.flights.complete(p.cid, p.flight, data, err)
	}
	res[idx].Data, res[idx].Err = data, err
}
