// YCSB-style object workloads: skewed update-heavy mixes (the regime where
// 2PL writers contend on hot objects while group commit amortizes their
// syncs) and a large-object stream (where per-commit byte volume, not sync
// count, dominates). Results join BENCH_objstore.json as ycsb_runs rows so
// successive PRs can track contention and bulk-write behavior alongside the
// commit-pipeline numbers.
package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	//tdblint:ignore secret-hygiene deterministic benchmark workload generation; no secret material
	"math/rand"

	"tdb/internal/chunkstore"
	"tdb/internal/objectstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// ycsbRunResult is one workload's measurements.
type ycsbRunResult struct {
	Workload        string  `json:"workload"`
	Objects         int     `json:"objects"`
	PayloadBytes    int     `json:"payload_bytes"`
	ReadFraction    float64 `json:"read_fraction"`
	Zipfian         bool    `json:"zipfian"`
	Workers         int     `json:"workers"`
	Ops             int     `json:"ops"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	P50Micros       float64 `json:"p50_us"`
	P99Micros       float64 `json:"p99_us"`
	WriteBytesPerOp float64 `json:"write_bytes_per_op"`
}

// ycsbWorkload describes one mix.
type ycsbWorkload struct {
	name    string
	objects int
	payload int
	// readFrac is the fraction of operations that are snapshot reads; the
	// rest are durable read-modify-write commits.
	readFrac float64
	zipfian  bool
}

// ycsbWorkloads lists the mixes: YCSB-A-like update-heavy and YCSB-B-like
// read-mostly over a Zipfian hot set of small objects, plus a bulk stream
// of uniform updates to large objects.
func ycsbWorkloads() []ycsbWorkload {
	return []ycsbWorkload{
		{name: "update-heavy-zipf", objects: 1024, payload: 1 << 10, readFrac: 0.5, zipfian: true},
		{name: "read-mostly-zipf", objects: 1024, payload: 1 << 10, readFrac: 0.95, zipfian: true},
		{name: "large-object", objects: 64, payload: 64 << 10, readFrac: 0.0, zipfian: false},
	}
}

// ycsbPicker returns a seeded object-index source for a workload.
func ycsbPicker(w ycsbWorkload, seed int64) func() int {
	rng := rand.New(rand.NewSource(seed))
	if !w.zipfian {
		return func() int { return rng.Intn(w.objects) }
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(w.objects-1))
	return func() int { return int(z.Uint64()) }
}

// runYCSBWorkload runs one mix: workers × opsPer operations against a
// shared object pool on a metered in-memory store.
func runYCSBWorkload(w ycsbWorkload, workers, opsPer int) (ycsbRunResult, error) {
	suite, err := sec.NewSuite("aes-ctr-sha256", []byte("tdbbench-ycsb"))
	if err != nil {
		return ycsbRunResult{}, err
	}
	meter := platform.NewMeterStore(platform.NewMemStore())
	cs, err := chunkstore.Open(chunkstore.Config{
		Store:      meter,
		Suite:      suite,
		Counter:    platform.NewMemCounter(),
		UseCounter: true,
		CacheBytes: 64 << 20,
	})
	if err != nil {
		return ycsbRunResult{}, err
	}
	reg := objectstore.NewRegistry()
	reg.Register(benchBlobClass, func() objectstore.Object { return &benchBlob{} })
	s, err := objectstore.Open(objectstore.Config{
		Chunks:      cs,
		Registry:    reg,
		LockTimeout: 10 * time.Second,
	})
	if err != nil {
		return ycsbRunResult{}, err
	}
	defer s.Close()

	oids := make([]objectstore.ObjectID, w.objects)
	seed := s.Begin()
	for i := range oids {
		oid, err := seed.Insert(&benchBlob{Payload: make([]byte, w.payload)})
		if err != nil {
			return ycsbRunResult{}, err
		}
		oids[i] = oid
	}
	if err := seed.Commit(true); err != nil {
		return ycsbRunResult{}, err
	}

	before := meter.Stats().Snapshot()
	lats := make([][]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			pick := ycsbPicker(w, int64(100+wk))
			mix := rand.New(rand.NewSource(int64(200 + wk)))
			lats[wk] = make([]time.Duration, 0, opsPer)
			for i := 0; i < opsPer; i++ {
				oid := oids[pick()]
				t0 := time.Now()
				if mix.Float64() < w.readFrac {
					txn := s.BeginReadOnly()
					ref, err := objectstore.OpenReadonly[*benchBlob](txn, oid)
					if err != nil {
						errs[wk] = err
						txn.Abort()
						return
					}
					_ = ref.Deref().Payload[0]
					txn.Abort()
				} else {
					txn := s.Begin()
					ref, err := objectstore.OpenWritable[*benchBlob](txn, oid)
					if err != nil {
						errs[wk] = err
						txn.Abort()
						return
					}
					ref.Deref().Payload[i%w.payload]++
					if err := txn.Commit(true); err != nil {
						errs[wk] = err
						return
					}
				}
				lats[wk] = append(lats[wk], time.Since(t0))
			}
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ycsbRunResult{}, err
		}
	}
	delta := meter.Stats().Snapshot().Sub(before)

	all := flattenDurations(lats)
	ops := len(all)
	return ycsbRunResult{
		Workload:        w.name,
		Objects:         w.objects,
		PayloadBytes:    w.payload,
		ReadFraction:    w.readFrac,
		Zipfian:         w.zipfian,
		Workers:         workers,
		Ops:             ops,
		OpsPerSec:       float64(ops) / elapsed.Seconds(),
		P50Micros:       durationPercentile(all, 0.50),
		P99Micros:       durationPercentile(all, 0.99),
		WriteBytesPerOp: float64(delta.BytesWritten) / float64(ops),
	}, nil
}

// flattenDurations merges per-worker latency slices, sorted ascending.
func flattenDurations(lats [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// durationPercentile returns the p-th percentile of a sorted slice, in
// microseconds.
func durationPercentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))]) / float64(time.Microsecond)
}

// runYCSB sweeps the workloads and appends rows to the report.
func runYCSB(report *objstoreReport, workers, txns int) error {
	fmt.Println("== YCSB-style mixes: skewed contention and large objects ==")
	for _, w := range ycsbWorkloads() {
		opsPer := txns / workers
		if w.payload >= 64<<10 && opsPer > 500 {
			opsPer = 500 // bulk stream: bounded by byte volume, not op count
		}
		res, err := runYCSBWorkload(w, workers, opsPer)
		if err != nil {
			return fmt.Errorf("ycsb %s: %w", w.name, err)
		}
		report.YCSBRuns = append(report.YCSBRuns, res)
		fmt.Printf("  %-18s %4d objs %6dB %3.0f%% reads %9.0f ops/s   p50 %7.1fµs   p99 %8.1fµs   %7.0f B/op written\n",
			res.Workload, res.Objects, res.PayloadBytes, res.ReadFraction*100,
			res.OpsPerSec, res.P50Micros, res.P99Micros, res.WriteBytesPerOp)
	}
	fmt.Println()
	return nil
}
