// The objstore experiment measures object-store commit performance — the
// workload the harden-round and off-mutex pipeline PRs optimize. W workers
// each run durable update transactions against private 4 KiB objects on the
// AES-CTR/SHA-256 suite with a one-way counter, reporting commit throughput,
// latency percentiles, and log syncs per commit. With -json the results are
// also written to BENCH_objstore.json so successive PRs accumulate a
// machine-readable perf trajectory.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	//tdblint:ignore secret-hygiene deterministic benchmark workload generation; no secret material
	"math/rand"

	"tdb/internal/chunkstore"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
	"tdb/internal/tpcb"
)

// objstoreResult is one configuration's measurements, JSON-shaped for
// BENCH_objstore.json.
type objstoreResult struct {
	Config         string  `json:"config"`
	Workers        int     `json:"workers"`
	Commits        int     `json:"commits"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	P50Micros      float64 `json:"p50_us"`
	P99Micros      float64 `json:"p99_us"`
	SyncsPerCommit float64 `json:"syncs_per_commit"`
	// Write-op and write-byte derivations make the write-behind batching
	// visible in the record, not just wall-clock: with the tail buffer, a
	// whole harden round of records lands as one WriteAt.
	WritesPerCommit     float64 `json:"writes_per_commit"`
	WriteBytesPerCommit float64 `json:"write_bytes_per_commit"`
}

// objstoreReport is the full BENCH_objstore.json document.
type objstoreReport struct {
	Suite       string           `json:"suite"`
	PayloadSize int              `json:"payload_bytes"`
	Runs        []objstoreResult `json:"runs"`
	// ReadRuns records the snapshot-read experiments: read throughput as a
	// function of reader count with a writer committing concurrently, for a
	// uniform read-heavy TPC-B mix and a Zipfian hot-key mix.
	ReadRuns []readRunResult `json:"read_runs,omitempty"`
	// YCSBRuns records the YCSB-style mixes: Zipfian update-heavy and
	// read-mostly contention over a hot object set, and a large-object
	// update stream (ycsb.go).
	YCSBRuns []ycsbRunResult `json:"ycsb_runs,omitempty"`
	// ScanRuns records the full-collection scan experiments: sweep
	// throughput with the iterator prefetch pipeline off (window 0, the
	// pre-pipeline baseline) and on, alone and against a live writer
	// (scan.go).
	ScanRuns []scanRunResult `json:"scan_runs,omitempty"`
}

// readRunResult is one snapshot-read configuration's measurements.
type readRunResult struct {
	Workload            string  `json:"workload"`
	Readers             int     `json:"readers"`
	Reads               int     `json:"reads"`
	ReadsPerSec         float64 `json:"reads_per_sec"`
	WriterCommitsPerSec float64 `json:"writer_commits_per_sec"`
	ReadP50Micros       float64 `json:"read_p50_us"`
	ReadP99Micros       float64 `json:"read_p99_us"`
	// ReadSlowPaths counts chunk reads that left the happy path during the
	// run — map-node fault-ins and shared-lock last attempts (expected ~0
	// once the map is resident).
	ReadSlowPaths int64 `json:"read_slow_paths"`
}

// benchBlob is the experiment's persistent class: a raw payload.
type benchBlob struct {
	Payload []byte
}

const benchBlobClass = objectstore.ClassID(9001)

func (o *benchBlob) ClassID() objectstore.ClassID { return benchBlobClass }
func (o *benchBlob) Pickle(p *objectstore.Pickler) {
	p.BytesVal(o.Payload)
}
func (o *benchBlob) Unpickle(u *objectstore.Unpickler) error {
	o.Payload = u.BytesVal()
	return u.Err()
}

const objstorePayload = 4 << 10

// objstoreVariant names a backing store to measure the one commit path on.
// The disk variant runs over a real directory store, where every durable
// commit pays a true fsync — the regime harden rounds exist for; it disables
// background cleaning and checkpointing so the measurement isolates commit
// cost (the paper's §7.3 experiments drive cleaning separately).
type objstoreVariant struct {
	name string
	disk bool
}

// objstoreConfigs lists the configurations the experiment compares: durable
// commits coalescing into shared log syncs and counter advances, on memory
// and on disk.
func objstoreConfigs() []objstoreVariant {
	return []objstoreVariant{
		{name: "default"},
		{name: "default-disk", disk: true},
	}
}

// runObjstoreConfig runs one configuration: workers × commitsPer durable
// update transactions over private objects.
func runObjstoreConfig(v objstoreVariant, workers, commitsPer int) (objstoreResult, error) {
	suite, err := sec.NewSuite("aes-ctr-sha256", []byte("tdbbench-objstore"))
	if err != nil {
		return objstoreResult{}, err
	}
	var backing platform.UntrustedStore = platform.NewMemStore()
	if v.disk {
		dir, err := os.MkdirTemp("", "tdbbench-objstore")
		if err != nil {
			return objstoreResult{}, err
		}
		defer os.RemoveAll(dir)
		if backing, err = platform.NewDirStore(dir); err != nil {
			return objstoreResult{}, err
		}
	}
	meter := platform.NewMeterStore(backing)
	ccfg := chunkstore.Config{
		Store:      meter,
		Suite:      suite,
		Counter:    platform.NewMemCounter(),
		UseCounter: true,
		CacheBytes: 64 << 20,
	}
	if v.disk {
		ccfg.SegmentSize = 4 << 20
		ccfg.DisableAutoClean = true
		ccfg.DisableAutoCheckpoint = true
	}
	cs, err := chunkstore.Open(ccfg)
	if err != nil {
		return objstoreResult{}, err
	}
	reg := objectstore.NewRegistry()
	reg.Register(benchBlobClass, func() objectstore.Object { return &benchBlob{} })
	s, err := objectstore.Open(objectstore.Config{
		Chunks:      cs,
		Registry:    reg,
		LockTimeout: 5 * time.Second,
	})
	if err != nil {
		return objstoreResult{}, err
	}
	defer s.Close()

	oids := make([]objectstore.ObjectID, workers)
	seed := s.Begin()
	for w := range oids {
		oid, err := seed.Insert(&benchBlob{Payload: make([]byte, objstorePayload)})
		if err != nil {
			return objstoreResult{}, err
		}
		oids[w] = oid
	}
	if err := seed.Commit(true); err != nil {
		return objstoreResult{}, err
	}

	before := meter.Stats().Snapshot()
	lats := make([][]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats[w] = make([]time.Duration, 0, commitsPer)
			for i := 0; i < commitsPer; i++ {
				t0 := time.Now()
				txn := s.Begin()
				ref, err := objectstore.OpenWritable[*benchBlob](txn, oids[w])
				if err != nil {
					errs[w] = err
					return
				}
				ref.Deref().Payload[i%objstorePayload]++
				if err := txn.Commit(true); err != nil {
					errs[w] = err
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return objstoreResult{}, err
		}
	}
	delta := meter.Stats().Snapshot().Sub(before)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Microsecond)
	}
	commits := len(all)
	return objstoreResult{
		Config:              v.name,
		Workers:             workers,
		Commits:             commits,
		OpsPerSec:           float64(commits) / elapsed.Seconds(),
		P50Micros:           pct(0.50),
		P99Micros:           pct(0.99),
		SyncsPerCommit:      float64(delta.SyncOps) / float64(commits),
		WritesPerCommit:     float64(delta.WriteOps) / float64(commits),
		WriteBytesPerCommit: float64(delta.BytesWritten) / float64(commits),
	}, nil
}

// readWorkloads names the snapshot-read mixes. "read-heavy" draws row ids
// uniformly (the read-mostly TPC-B variant); "zipfian" draws them from a
// Zipf distribution so readers and the writer pile onto the same hot keys —
// the regime where 2PL readers used to serialize against the writer or
// abort on lock timeouts, and where version chains actually grow.
const (
	readHeavyWorkload = "read-heavy"
	zipfianWorkload   = "zipfian"
)

// readPicker returns a per-goroutine Op source for a workload.
func readPicker(workload string, seed int64, scale tpcb.Scale) func() tpcb.Op {
	rng := rand.New(rand.NewSource(seed))
	if workload != zipfianWorkload {
		gen := tpcb.NewGenerator(seed, scale)
		return gen.Next
	}
	zAcc := rand.NewZipf(rng, 1.2, 1, uint64(scale.Accounts-1))
	zTel := rand.NewZipf(rng, 1.2, 1, uint64(scale.Tellers-1))
	zBr := rand.NewZipf(rng, 1.2, 1, uint64(scale.Branches-1))
	return func() tpcb.Op {
		return tpcb.Op{
			Account: int32(zAcc.Uint64()),
			Teller:  int32(zTel.Uint64()),
			Branch:  int32(zBr.Uint64()),
			Delta:   int64(rng.Intn(1999999) - 999999),
		}
	}
}

// runReadWorkload measures snapshot-read throughput for one reader count:
// `readers` goroutines run read-only TPC-B transactions (MVCC snapshots, no
// locks) while one writer goroutine commits read-write TPC-B transactions
// continuously. The driver disables 2PL (single write stream), which is
// exactly the point: snapshot readers need no locks at all.
func runReadWorkload(d *tpcb.TDBDriver, workload string, readers, readsPer int) (readRunResult, error) {
	scale := tpcb.SmallScale
	stop := make(chan struct{})
	var writerCommits int64
	var writerErr error
	var wgWriter sync.WaitGroup
	wgWriter.Add(1)
	go func() {
		defer wgWriter.Done()
		gen := tpcb.NewGenerator(99, scale)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.Run(gen.Next()); err != nil {
				writerErr = err
				return
			}
			writerCommits++
		}
	}()

	cacheBefore := d.DB().Stats()
	lats := make([][]time.Duration, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			pick := readPicker(workload, int64(1000+r), scale)
			lats[r] = make([]time.Duration, 0, readsPer)
			for i := 0; i < readsPer; i++ {
				t0 := time.Now()
				if err := d.RunReadOnly(pick()); err != nil {
					errs[r] = err
					return
				}
				lats[r] = append(lats[r], time.Since(t0))
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	wgWriter.Wait()
	cacheAfter := d.DB().Stats()
	if writerErr != nil {
		return readRunResult{}, writerErr
	}
	for _, err := range errs {
		if err != nil {
			return readRunResult{}, err
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[int(p*float64(len(all)-1))]) / float64(time.Microsecond)
	}
	return readRunResult{
		Workload:            workload,
		Readers:             readers,
		Reads:               len(all),
		ReadsPerSec:         float64(len(all)) / elapsed.Seconds(),
		WriterCommitsPerSec: float64(writerCommits) / elapsed.Seconds(),
		ReadP50Micros:       pct(0.50),
		ReadP99Micros:       pct(0.99),
		ReadSlowPaths:       cacheAfter.ReadSlowPaths - cacheBefore.ReadSlowPaths,
	}, nil
}

// runSnapshotReads sweeps reader counts for both read workloads and appends
// the rows to the report. Each reader performs at least readFloor reads:
// short runs (the default -txns split across readers) produced rows noisy
// enough that the 4-reader point measured below the 2-reader one.
func runSnapshotReads(report *objstoreReport, readsPer int) error {
	const readFloor = 10000
	if readsPer < readFloor {
		readsPer = readFloor
	}
	fmt.Println("== Snapshot reads: scaling with reader count under a concurrent writer ==")
	for _, workload := range []string{readHeavyWorkload, zipfianWorkload} {
		store := platform.NewMemStore()
		d, err := tpcb.NewTDBDriverSuite(store, "aes-ctr-sha256", 0.60)
		if err != nil {
			return err
		}
		if err := d.Load(tpcb.SmallScale); err != nil {
			d.Close()
			return err
		}
		for _, readers := range []int{1, 2, 4, 8} {
			res, err := runReadWorkload(d, workload, readers, readsPer)
			if err != nil {
				d.Close()
				return fmt.Errorf("snapshot reads %s x%d: %w", workload, readers, err)
			}
			report.ReadRuns = append(report.ReadRuns, res)
			fmt.Printf("  %-12s %2d readers %9.0f reads/s   p50 %7.1fµs   p99 %8.1fµs   writer %7.0f commits/s   slow %d\n",
				res.Workload, res.Readers, res.ReadsPerSec, res.ReadP50Micros, res.ReadP99Micros, res.WriterCommitsPerSec,
				res.ReadSlowPaths)
		}
		if err := d.Close(); err != nil {
			return err
		}
	}
	fmt.Println()
	return nil
}

// runObjstore runs the object-store commit experiment and, with jsonOut,
// writes BENCH_objstore.json.
func runObjstore(workers, txns int, jsonOut bool) error {
	fmt.Println("== Object-store commit pipeline: durable commit throughput ==")
	fmt.Printf("   suite aes-ctr-sha256, %d workers, %d B payload, %d commits/worker\n",
		workers, objstorePayload, txns/workers)
	report := objstoreReport{Suite: "aes-ctr-sha256", PayloadSize: objstorePayload}
	for _, cfg := range objstoreConfigs() {
		res, err := runObjstoreConfig(cfg, workers, txns/workers)
		if err != nil {
			return fmt.Errorf("objstore %s: %w", cfg.name, err)
		}
		report.Runs = append(report.Runs, res)
		fmt.Printf("  %-24s %9.0f commits/s   p50 %7.1fµs   p99 %7.1fµs   %.2f syncs/commit   %.2f writes/commit   %.0f B/commit\n",
			res.Config, res.OpsPerSec, res.P50Micros, res.P99Micros, res.SyncsPerCommit, res.WritesPerCommit, res.WriteBytesPerCommit)
	}
	fmt.Println()
	if err := runSnapshotReads(&report, txns/workers); err != nil {
		return err
	}
	if err := runYCSB(&report, workers, txns); err != nil {
		return err
	}
	if err := runScanExperiments(&report, false); err != nil {
		return err
	}
	if jsonOut {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_objstore.json", append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote BENCH_objstore.json")
	}
	return nil
}
