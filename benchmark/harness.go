package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tdb"
	"tdb/internal/platform"
)

// sizes are the workload dimensions. The full set is what BENCHMARK.json's
// numbers refer to; the short set keeps the package's tests to seconds.
type sizes struct {
	accounts, tellers, branches int // tpcb
	objects                     int // update-c2
	records, hot, scanLen       int // read-hot, read-cold, scan-vs-writer
	lookups                     int // exact-match lookups per read operation
	writerRate                  int // scan-vs-writer: paced commits per second
	writerSet                   int // scan-vs-writer: records the writer updates
	warmOps                     int // fixed warm-up operations per client
	warmCap                     int // bound on "until the cleaner has started"
	probeKeys                   int // keys each layer probe replays
	probeCommits                int // durable commit-stage probes
	durableOps                  int // acknowledged commits the crash check makes
	setupReps                   int // set-ups per untraced run (median reported)
}

var fullSizes = sizes{
	accounts: 10000, tellers: 100, branches: 10,
	objects: 4096,
	records: 32768, hot: 1024, scanLen: 4096,
	lookups: 8, writerRate: 200, writerSet: 1024,
	warmOps: 2000, warmCap: 200000,
	probeKeys: 2000, probeCommits: 200, durableOps: 200,
	setupReps: 3,
}

var shortSizes = sizes{
	accounts: 1000, tellers: 10, branches: 2,
	objects: 256,
	records: 2048, hot: 128, scanLen: 256,
	lookups: 8, writerRate: 200, writerSet: 64,
	warmOps: 50, warmCap: 20000,
	probeKeys: 64, probeCommits: 8, durableOps: 20,
	setupReps: 1,
}

var deviceSecret = []byte("tdb-benchmark-device-secret-0123")

// env is one database under test: the device and the open handle.
type env struct {
	seed int64
	sz   sizes
	dev  *device
	db   *tdb.DB
}

// open opens the database on default options: Store, Secret and Registry
// are the only fields set, so every default (suite, counter emulation,
// cache budgets, auto-clean, auto-checkpoint, group commit, write-behind,
// prefetch window) is what gets measured.
func (e *env) open() error {
	db, err := tdb.Open(tdb.Options{Store: e.dev, Secret: deviceSecret, Registry: newRegistry()})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	e.db = db
	return nil
}

// workload is one set of inputs. Implementations keep their generators as
// state: the same seeded stream runs on from load through warm-up and the
// measured phase into the layer probes.
type workload interface {
	clients() int
	// load fills a freshly created database.
	load(e *env) error
	// client returns client c's closed-loop operation.
	client(e *env, c int, rec *recorder) func() error
	// warm runs the unmeasured warm-up. Committing workloads commit
	// nondurably until it returns, so ageing the log does not wait on the
	// flush delay.
	warm(e *env) error
	// check validates a freshly recovered handle against what the clients
	// were acknowledged.
	check(db *tdb.DB) error
	// nextOIDs resolves the next n keys of client 0's stream to object ids,
	// for the layer probes.
	nextOIDs(e *env, n int) ([]tdb.ObjectID, error)
}

// committer is implemented by the workloads whose measured phase writes.
// One that does not implement it must leave the device's write counters
// untouched.
type committer interface {
	// durableOp commits the i-th durable operation of the crash check;
	// durableState is the quantity each such commit advances by one.
	durableOp(db *tdb.DB, i int) error
	durableState(db *tdb.DB) (int64, error)
}

// background is implemented by a workload with an open-loop client beside
// its closed-loop ones.
type background interface {
	// run paces operations until stop is closed, then returns.
	run(e *env, stop <-chan struct{}) writerResult
}

type writerResult struct {
	lat       []int64 // ns from each commit's due time to its completion
	late      int     // commits that began more than one period behind
	attempted int64
	failed    int64
}

// setupResult is what one set-up measured.
type setupResult struct {
	seconds   float64
	loadIO    ioCounts
	reopenMs  float64
	firstOpUs float64
}

// setup builds a fresh database, closes and reopens it (every measured
// phase starts from recovery, with cold caches), and warms it up.
func setup(e *env, w workload) (setupResult, error) {
	var res setupResult
	start := time.Now()
	e.dev = newDevice(syncDelay)
	if err := e.open(); err != nil {
		return res, err
	}
	if err := w.load(e); err != nil {
		return res, fmt.Errorf("load: %w", err)
	}
	if err := e.db.Close(); err != nil {
		return res, fmt.Errorf("close after load: %w", err)
	}
	res.loadIO = e.dev.counts()

	reopen := time.Now()
	if err := e.open(); err != nil {
		return res, err
	}
	res.reopenMs = float64(time.Since(reopen)) / 1e6

	first := time.Now()
	if err := w.client(e, 0, nil)(); err != nil {
		return res, fmt.Errorf("first operation: %w", err)
	}
	res.firstOpUs = float64(time.Since(first)) / 1e3
	if err := w.warm(e); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	if _, ok := w.(committer); ok {
		// The measured phase is bracketed by checkpoints, so the bytes it
		// is charged are whole: log records, cleaner copies, and the map
		// nodes they dirtied, none owed to or by the phases around it.
		if err := e.db.Checkpoint(); err != nil {
			return res, fmt.Errorf("checkpoint: %w", err)
		}
	}
	res.seconds = time.Since(start).Seconds()
	return res, nil
}

// phase is what one measured phase observed.
type phase struct {
	lat       [][]int64 // per closed-loop client, ns
	rate      float64   // closed-loop operations per second, summed over clients
	attempted int64
	failed    int64
	writer    *writerResult
	firstErr  error
	// spaceAmp holds device bytes stored ÷ live bytes, sampled through the
	// phase after client 0's operations: the log's size is a sawtooth
	// between cleaner passes, and one reading at the end would report
	// wherever the teeth happened to stop.
	spaceAmp []float64
}

// runPhase drives every client for d (or, when maxOps > 0, for exactly
// maxOps operations each). A client's rate is its operation count over the
// time to its last completion, so the phase boundary does not quantize it.
func runPhase(e *env, w workload, d time.Duration, maxOps int, tr *tracer) phase {
	n := w.clients()
	ph := phase{lat: make([][]int64, n)}
	rates := make([]float64, n)
	var failed atomic.Int64
	var errOnce sync.Once
	e.dev.trace(tr)
	defer e.dev.trace(nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	if bg, ok := w.(background); ok {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := bg.run(e, stop)
			ph.writer = &res
		}()
	}
	var clients sync.WaitGroup
	var space sampler
	start := time.Now()
	for c := 0; c < n; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			rec := tr.client(c)
			op := w.client(e, c, rec)
			lat := make([]int64, 0, 1<<16)
			last := start
			for maxOps == 0 || len(lat) < maxOps {
				t0 := time.Now()
				if maxOps == 0 && t0.Sub(start) >= d {
					break
				}
				s := rec.beginOp()
				err := op()
				rec.endOp(s)
				last = time.Now()
				lat = append(lat, int64(last.Sub(t0)))
				if err != nil {
					failed.Add(1)
					errOnce.Do(func() { ph.firstErr = err })
				}
				if c == 0 {
					space.after(len(lat), func() float64 { return spaceAmp(e) })
				}
			}
			ph.lat[c] = lat
			rates[c] = ratio(float64(len(lat)), last.Sub(start).Seconds())
		}(c)
	}
	clients.Wait()
	close(stop)
	wg.Wait()
	ph.spaceAmp = space.vals

	for c := range ph.lat {
		ph.attempted += int64(len(ph.lat[c]))
		ph.rate += rates[c]
	}
	ph.failed = failed.Load()
	if ph.writer != nil {
		ph.attempted += ph.writer.attempted
		ph.failed += ph.writer.failed
	}
	return ph
}

// spaceAmp is device bytes stored per live byte, now.
func spaceAmp(e *env) float64 {
	stored, err := e.dev.storedBytes()
	if err != nil {
		return 0 // the in-memory device does not fail; a 0 would show
	}
	return ratio(float64(stored), float64(e.db.Stats().LiveBytes))
}

// sampler keeps between sampleKeep and 2·sampleKeep readings of a quantity,
// evenly spaced over however many operations a client ends up completing:
// it reads every stride-th operation, and whenever it holds 2·sampleKeep
// readings it drops every other one and doubles the stride. Which
// operations are sampled depends on the operation count alone, so a run of
// a fixed count samples the same states every time.
type sampler struct {
	stride, next int
	vals         []float64
}

const sampleKeep = 64

// after is called with the number of operations completed so far.
func (s *sampler) after(ops int, read func() float64) {
	if s.stride == 0 {
		s.stride, s.next = 1, 1
	}
	if ops < s.next {
		return
	}
	s.vals = append(s.vals, read())
	if len(s.vals) == 2*sampleKeep {
		for i := 0; i < sampleKeep; i++ {
			s.vals[i] = s.vals[2*i+1]
		}
		s.vals = s.vals[:sampleKeep]
		s.stride *= 2
	}
	s.next = (len(s.vals) + 1) * s.stride
}

// closedOps is the number of closed-loop operations the phase completed.
func (ph phase) closedOps() int64 {
	var n int64
	for _, l := range ph.lat {
		n += int64(len(l))
	}
	return n
}

// latencyGroups is how many equal runs of consecutive operations each
// client's latencies are averaged over for resp_us.
const latencyGroups = 64

// typicalLatency is the response time an operation typically sees, in ns:
// the median, over every client's latencyGroups runs of consecutive
// operations, of the run's mean latency (a median of means). A plain median
// is ill-conditioned where latencies are multimodal — two committing clients
// see 1×, 2× or 3× the commit time depending on who wins the store mutex,
// with the median sitting on the edge between modes — and a plain mean
// moves with every rare maintenance stall; this moves with neither.
func (ph phase) typicalLatency() float64 {
	var means []float64
	for _, lat := range ph.lat {
		groups := min(latencyGroups, len(lat))
		for g := 0; g < groups; g++ {
			run := lat[len(lat)*g/groups : len(lat)*(g+1)/groups]
			var sum int64
			for _, l := range run {
				sum += l
			}
			means = append(means, float64(sum)/float64(len(run)))
		}
	}
	return medianFloat(means)
}

func (ph phase) merged() []int64 {
	var all []int64
	for _, l := range ph.lat {
		all = append(all, l...)
	}
	return sortedCopy(all)
}

// checkDurability reopens the database's bytes under a store that discards
// unsynced writes at a crash, commits the workload's durable operation n
// times, crashes, recovers, and demands every acknowledged commit back:
// durability from flushed bytes only. The flush delay is not charged here.
func checkDurability(e *env, w committer) error {
	fs := platform.NewFaultStore(e.dev.inner)
	fs.SetLoseUnsynced(true)
	open := func() (*tdb.DB, error) {
		return tdb.Open(tdb.Options{Store: fs, Secret: deviceSecret, Registry: newRegistry()})
	}
	db, err := open()
	if err != nil {
		return fmt.Errorf("durability: open: %w", err)
	}
	before, err := w.durableState(db)
	if err != nil {
		db.Close()
		return fmt.Errorf("durability: state before: %w", err)
	}
	n := e.sz.durableOps
	for i := 0; i < n; i++ {
		if err := w.durableOp(db, i); err != nil {
			db.Close()
			return fmt.Errorf("durability: commit %d: %w", i, err)
		}
	}
	// Power loss: the handle is abandoned, not closed — Close would flush.
	if err := fs.CrashLoseUnsynced(); err != nil {
		return fmt.Errorf("durability: crash: %w", err)
	}
	db, err = open()
	if err != nil {
		return fmt.Errorf("durability: recovery: %w", err)
	}
	defer db.Close()
	if err := db.Verify(); err != nil {
		return fmt.Errorf("durability: verify after recovery: %w", err)
	}
	after, err := w.durableState(db)
	if err != nil {
		return fmt.Errorf("durability: state after: %w", err)
	}
	if after != before+int64(n) {
		return fmt.Errorf("durability: %d acknowledged durable commits, %d survived the crash", n, after-before)
	}
	return nil
}

// errViolation marks a correctness or durability failure (as opposed to a
// harness error); both exit non-zero.
var errViolation = errors.New("correctness violation")

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
