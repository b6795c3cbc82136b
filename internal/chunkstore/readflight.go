package chunkstore

import "sync"

// Per-chunk singleflight for chunk reads. A Zipfian hot key that is not
// (yet) decoded a layer up draws many concurrent readers; without coalescing,
// each of them pays the full segment read, hash validation, and decryption
// for the same bytes. readFlights lets the first reader (the leader) do that
// work once while followers wait on its result.
//
// Coherence: a flight's value is computed against the location-map state the
// leader revalidated (see finishLocked). A commit that rewrites or deallocates
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
// under the store mutex). Leaders never hold a shard mutex while reading:
// tryClaim and complete each hold it only to register or remove the flight.

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

// tryClaim registers a flight for cid unless one is already in progress,
// without blocking. A successful claim makes the caller the leader: it
// reads the chunk and must release the flight with complete.
// A failed claim means another reader — a point read or a batch — is
// already fetching the chunk: a point read follows that flight, while a
// prefetch simply skips the chunk.
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

// follow waits for the flight in progress for cid and returns a private
// copy of its result, matching the ownership contract of Read. ok is false
// when there was no flight to follow or a commit staled it mid-read: the
// caller retries the read, which observes the new state.
func (rf *readFlights) follow(cid ChunkID) (data []byte, err error, ok bool) {
	sh := rf.shard(cid)
	sh.mu.Lock()
	f := sh.m[cid]
	if f == nil {
		sh.mu.Unlock()
		return nil, nil, false
	}
	f.waiters++
	sh.mu.Unlock()
	<-f.done
	if f.stale {
		return nil, nil, false
	}
	if f.data != nil {
		data = append([]byte(nil), f.data...)
	}
	return data, f.err, true
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
