package chunkstore

import "sync"

// Per-chunk singleflight for chunk reads. A Zipfian hot key that is not
// (yet) decoded a layer up draws many concurrent readers; without coalescing,
// each of them pays the full segment read, hash validation, and decryption
// for the same bytes. readFlights lets the first reader (the leader) do that
// work once while followers wait on its result.
//
// Coherence: a flight's value is computed against the location-map state the
// leader revalidated (see finishRead). A commit that rewrites or deallocates
// the chunk while the flight is in progress marks it stale — from inside
// commitPreparedLocked, before Commit returns — and stale followers retry
// the read, which observes the new value. The mutex handoff gives the happens-before chain:
// a staling commit finds the flight registered and writes stale under the
// shard mutex; the leader's removal of the flight takes the same mutex and
// precedes close(done), which every follower's read of stale synchronizes
// with. A commit that runs after the leader removed the flight cannot stale
// it, and does not need to: any follower of that flight joined before the
// removal, so its read overlaps the leader's (pre-commit) linearization
// point.
//
// Lock order: Store.mu → flightShard.mu (the commit path stales flights
// under the store mutex). Leaders never hold a shard mutex while reading —
// do releases it before invoking fn.

// flightShardCount spreads flight registration across independent mutexes so
// misses on distinct chunks do not contend. Power of two for cheap masking.
const flightShardCount = 16

// readFlight is one in-progress cache-miss read.
type readFlight struct {
	done chan struct{}
	data []byte
	err  error
	// stale is set by a commit that rewrote or deallocated the chunk while
	// the flight was in progress; followers observing it must retry.
	stale bool
	// waiters counts followers that joined the flight. Guarded by the
	// shard mutex; observable, so tests can sequence a join precisely.
	waiters int
}

type flightShard struct {
	mu sync.Mutex
	m  map[ChunkID]*readFlight
}

type readFlights struct {
	shards [flightShardCount]flightShard
}

func newReadFlights() *readFlights {
	rf := &readFlights{}
	for i := range rf.shards {
		rf.shards[i].m = make(map[ChunkID]*readFlight)
	}
	return rf
}

func (rf *readFlights) shard(cid ChunkID) *flightShard {
	return &rf.shards[mix64(uint64(cid))&(flightShardCount-1)]
}

// do coalesces concurrent calls for the same cid: the first caller runs fn,
// later callers wait and share its result. stale reports that a commit
// superseded the flight's value mid-read; the caller must re-check the read
// cache and retry. Followers receive a private copy of the data, matching
// the ownership contract of Read.
func (rf *readFlights) do(cid ChunkID, fn func() ([]byte, error)) (data []byte, err error, stale bool) {
	sh := rf.shard(cid)
	sh.mu.Lock()
	if f := sh.m[cid]; f != nil {
		f.waiters++
		sh.mu.Unlock()
		<-f.done
		if f.stale {
			return nil, nil, true
		}
		if f.data != nil {
			data = append([]byte(nil), f.data...)
		}
		return data, f.err, false
	}
	f := &readFlight{done: make(chan struct{})}
	sh.m[cid] = f
	sh.mu.Unlock()

	f.data, f.err = fn()

	sh.mu.Lock()
	delete(sh.m, cid)
	sh.mu.Unlock()
	close(f.done)
	// The leader's own result is never stale for the leader: readMiss
	// revalidated it against the location map at its linearization point.
	return f.data, f.err, false
}

// tryClaim registers a flight for cid unless one is already in progress,
// without blocking. Batch reads use it to dedupe against concurrent readers:
// a successful claim makes this caller the leader (point readers joining via
// do become its followers), while a failed claim means another reader — a
// point read or another batch — is already fetching the chunk and will
// publish it, so a prefetch can simply skip it. A claimed flight must be
// released with complete or abandon.
func (rf *readFlights) tryClaim(cid ChunkID) *readFlight {
	sh := rf.shard(cid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m[cid] != nil {
		return nil
	}
	f := &readFlight{done: make(chan struct{})}
	sh.m[cid] = f
	return f
}

// complete publishes a claimed flight's result and releases it, waking
// followers with the same result the leader computed.
func (rf *readFlights) complete(cid ChunkID, f *readFlight, data []byte, err error) {
	f.data, f.err = data, err
	sh := rf.shard(cid)
	sh.mu.Lock()
	delete(sh.m, cid)
	sh.mu.Unlock()
	close(f.done)
}

// abandon releases a claimed flight without a result: followers observe
// stale and retry the read, exactly as after a superseding
// commit. Batch reads abandon before falling back to the point-read path,
// which would otherwise deadlock following its own flight.
func (rf *readFlights) abandon(cid ChunkID, f *readFlight) {
	sh := rf.shard(cid)
	sh.mu.Lock()
	f.stale = true
	delete(sh.m, cid)
	sh.mu.Unlock()
	close(f.done)
}

// invalidate marks any in-flight read of cid stale. Called from the commit
// path, under the store mutex, for every chunk a sealed batch wrote or
// deallocated.
func (rf *readFlights) invalidate(cid ChunkID) {
	sh := rf.shard(cid)
	sh.mu.Lock()
	if f := sh.m[cid]; f != nil {
		f.stale = true
	}
	sh.mu.Unlock()
}

// mix64 is the splitmix64 finalizer, spreading sequential chunk ids across
// shards.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
