// Command benchmark is the repository's one benchmark: five workloads
// driven through tdb.Open on default options, five end-to-end metrics, and
// per-layer probes. See README.md in this directory and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// maxProcs is the parallelism every run is pinned to; no workload uses more
// client goroutines than this.
const maxProcs = 2

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"tpcb", "update-c2", "read-hot", "read-cold", "scan-vs-writer"}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "tpcb":
		return newTPCB(seed, sz), nil
	case "update-c2":
		return newUpdateC2(seed, sz), nil
	case "read-hot":
		return newReads(seed, sz, sz.hot), nil
	case "read-cold":
		return newReads(seed, sz, sz.records), nil
	case "scan-vs-writer":
		return newScanVsWriter(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// metricDef names a metric and its unit. The two tables below are the
// benchmark's contract with ../BENCHMARK.json; a test holds them equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"resp_us", "us"},
	{"write_bytes_per_op", "bytes"},
	{"space_amp", "ratio"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"collection.query_us", "us"},
	{"collection.deref_us", "us"},
	{"collection.iter_close_us", "us"},
	{"collection.self_share", "ratio"},
	{"objectstore.open_ro_us", "us"},
	{"objectstore.commit_us", "us"},
	{"objectstore.cached_objects", "count"},
	{"objectstore.version_chains", "count"},
	{"objectstore.lock_entries", "count"},
	{"chunkstore.read_us", "us"},
	{"chunkstore.read_batch_us_per_chunk", "us"},
	{"chunkstore.prepare_us", "us"},
	{"chunkstore.commit_prepared_us", "us"},
	{"chunkstore.await_durable_us", "us"},
	{"chunkstore.read_cache_hit_rate", "ratio"},
	{"chunkstore.read_slow_paths", "count"},
	{"chunkstore.coalesced_chunks_per_read", "count"},
	{"chunkstore.prefetch_useful_ratio", "ratio"},
	{"chunkstore.cleaned_bytes_per_op", "bytes"},
	{"chunkstore.checkpoints", "count"},
	{"chunkstore.cleanings", "count"},
	{"chunkstore.utilization", "ratio"},
	{"sec.encrypt_us", "us"},
	{"sec.decrypt_us", "us"},
	{"sec.hash_us", "us"},
	{"sec.share_of_read", "ratio"},
	{"platform.reads_per_op", "count"},
	{"platform.read_bytes_per_op", "bytes"},
	{"platform.writes_per_op", "count"},
	{"platform.syncs_per_op", "count"},
	{"platform.sync_wait_us_per_op", "us"},
	{"core.reopen_ms", "ms"},
	{"core.first_op_us", "us"},
	{"client.p50_us", "us"},
	{"client.p99_us", "us"},
	{"client.tail_percentile", "pct"},
	{"client.max_us", "us"},
	{"client.writer_p50_us", "us"},
	{"client.writer_late_frac", "ratio"},
	{"trace_overhead", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: the same numbers with their context.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Short       bool              `json:"short"`
	Host        host              `json:"host"`
	SyncDelayUs int64             `json:"sync_delay_us"`
	Clients     int               `json:"clients"`
	Samples     int               `json:"latency_samples"`
	Attempted   int64             `json:"ops_attempted"`
	Failed      int64             `json:"ops_failed"`
	Violation   string            `json:"violation,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
}

type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// config is one invocation's parameters. maxOps, when positive, replaces
// the time bound with an exact operation count per client (tests use it to
// make counts repeat).
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	maxOps   int
	traceDir string
}

// defaultTraceDir is where a traced run leaves its spans: the build directory
// run.sh makes at the root of the checkout, which .gitignore names.
const defaultTraceDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, defaultTraceDir)) }

func run(args []string, out io.Writer, traceDir string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	cfg := config{traceDir: traceDir}
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics; 0: untraced, reporting the end-to-end ones")
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	fs.BoolVar(&cfg.short, "short", false, "small sizes, for smoke runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-short]")
		return 2
	}
	cfg.trace = *trace == 1
	runtime.GOMAXPROCS(maxProcs)

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	code := 0
	enc := json.NewEncoder(out)
	for _, name := range names {
		cfg.workload = name
		rep, err := measure(cfg)
		if err != nil && !errors.Is(err, errViolation) {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			rep.Violation = err.Error()
			code = 1
		}
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		res := result{Correct: err == nil, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
		for _, d := range defs {
			m, ok := rep.Metrics[d.name]
			if !ok {
				m = metric{Unit: d.unit} // not applicable to this workload
			}
			res.Metrics[d.name] = m
		}
		if err := enc.Encode(rep); err != nil {
			return 1
		}
		if err := enc.Encode(res); err != nil {
			return 1
		}
	}
	return code
}

// measure runs one workload end to end: set-up, measured phase, accounting,
// probes when traced, then every correctness check. An error wrapping
// errViolation comes with a usable report; any other error does not.
func measure(cfg config) (*report, error) {
	sz := fullSizes
	if cfg.short {
		sz = shortSizes
	}
	e := &env{seed: cfg.seed, sz: sz}
	reps := sz.setupReps
	if cfg.trace {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var w workload
	var setups []setupResult
	for r := 0; r < reps; r++ {
		if e.db != nil {
			if err := e.db.Close(); err != nil {
				return nil, fmt.Errorf("discarding set-up %d: %w", r, err)
			}
		}
		var err error
		if w, err = newWorkload(cfg.workload, cfg.seed, sz); err != nil {
			return nil, err
		}
		res, err := setup(e, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, res)
	}
	last := setups[len(setups)-1]
	comm, commits := w.(committer)

	// Measured phase: untraced; a traced run splits its time between an
	// untraced and a traced half, so it can say what tracing cost.
	d := time.Duration(cfg.seconds * float64(time.Second))
	statsBefore, ioBefore := e.db.Stats(), e.dev.counts()
	var tr *tracer
	var traced phase
	if cfg.trace {
		d /= 2
	}
	ph := runPhase(e, w, d, cfg.maxOps, nil)
	if cfg.trace {
		tr = newTracer(w.clients())
		traced = runPhase(e, w, d, cfg.maxOps, tr)
	}
	if commits {
		if err := e.db.Checkpoint(); err != nil {
			return nil, fmt.Errorf("closing checkpoint: %w", err)
		}
	}
	stats, io := e.db.Stats(), e.dev.counts().sub(ioBefore)

	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Short: cfg.short,
		Host: fingerprint(), SyncDelayUs: syncDelay.Microseconds(), Clients: w.clients(),
		Attempted: ph.attempted + traced.attempted, Failed: ph.failed + traced.failed,
		Metrics: map[string]metric{},
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	set := func(name string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: units[name]} }
	var violation error
	violate := func(err error) {
		if violation == nil {
			violation = err
		}
	}
	for _, p := range []phase{ph, traced} {
		if p.firstErr != nil {
			logf("%s: first failed operation: %v", cfg.workload, p.firstErr)
			if errors.Is(p.firstErr, errViolation) {
				violate(p.firstErr)
			}
		}
	}

	// End-to-end metrics, from the untraced phase.
	lat := ph.merged()
	if len(lat) == 0 {
		return nil, errors.New("measured phase completed no operation")
	}
	rep.Samples = len(lat)
	closedOps := float64(ph.closedOps() + traced.closedOps())
	writeOps := closedOps
	if ph.writer != nil {
		writeOps = float64(ph.writer.attempted)
		if traced.writer != nil {
			writeOps += float64(traced.writer.attempted)
		}
	}
	set("ops_per_s", ph.rate)
	set("resp_us", ph.typicalLatency()/1e3)
	if commits {
		set("write_bytes_per_op", ratio(float64(io.writeBytes), writeOps))
	} else {
		// A read-only measured phase must not write; what the workload's
		// data cost to write is the load's figure.
		if io.writeBytes != 0 || io.writes != 0 || io.syncs != 0 {
			violate(fmt.Errorf("%w: read-only workload wrote %d bytes in %d writes, %d syncs", errViolation, io.writeBytes, io.writes, io.syncs))
		}
		set("write_bytes_per_op", ratio(float64(last.loadIO.writeBytes), float64(sz.records)))
	}
	set("space_amp", meanFloat(append(ph.spaceAmp, traced.spaceAmp...)))
	secs := make([]float64, len(setups))
	for i, s := range setups {
		secs[i] = s.seconds
	}
	set("setup_s", medianFloat(secs))

	// Layer diagnostics that need no tracer.
	tail := tailPercentile(len(lat))
	set("client.p50_us", float64(percentile(lat, 50))/1e3)
	set("client.p99_us", float64(percentile(lat, tail))/1e3)
	set("client.tail_percentile", tail)
	set("client.max_us", float64(lat[len(lat)-1])/1e3)
	if wr := ph.writer; wr != nil && len(wr.lat) > 0 {
		set("client.writer_p50_us", float64(percentile(sortedCopy(wr.lat), 50))/1e3)
		set("client.writer_late_frac", ratio(float64(wr.late), float64(wr.attempted)))
	}
	set("core.reopen_ms", last.reopenMs)
	set("core.first_op_us", last.firstOpUs)
	set("platform.reads_per_op", ratio(float64(io.reads), closedOps))
	set("platform.read_bytes_per_op", ratio(float64(io.readBytes), closedOps))
	set("platform.writes_per_op", ratio(float64(io.writes), closedOps))
	set("platform.syncs_per_op", ratio(float64(io.syncs), closedOps))
	set("platform.sync_wait_us_per_op", ratio(float64(io.syncWaitNs)/1e3, closedOps))
	hits := float64(stats.ReadCacheHits - statsBefore.ReadCacheHits)
	misses := float64(stats.ReadCacheMisses - statsBefore.ReadCacheMisses)
	set("chunkstore.read_cache_hit_rate", ratio(hits, hits+misses))
	set("chunkstore.read_slow_paths", float64(stats.ReadSlowPaths-statsBefore.ReadSlowPaths))
	set("chunkstore.coalesced_chunks_per_read", ratio(float64(stats.CoalescedChunks-statsBefore.CoalescedChunks), float64(stats.CoalescedReads-statsBefore.CoalescedReads)))
	set("chunkstore.prefetch_useful_ratio", ratio(float64(stats.PrefetchHits-statsBefore.PrefetchHits), float64(stats.PrefetchedChunks-statsBefore.PrefetchedChunks)))
	set("chunkstore.cleaned_bytes_per_op", ratio(float64(stats.CleanedBytes-statsBefore.CleanedBytes), writeOps))
	set("chunkstore.checkpoints", float64(stats.Checkpoints-statsBefore.Checkpoints))
	set("chunkstore.cleanings", float64(stats.Cleanings-statsBefore.Cleanings))
	set("chunkstore.utilization", stats.Utilization)
	ostats := e.db.Objects().Stats()
	set("objectstore.cached_objects", float64(ostats.CachedObjects))
	set("objectstore.version_chains", float64(ostats.VersionChains))
	set("objectstore.lock_entries", float64(ostats.LockEntries))
	if cfg.workload == "read-hot" && rep.Metrics["platform.reads_per_op"].Value >= 0.01 {
		violate(fmt.Errorf("%w: read-hot made %.4f device reads per operation; its key span must stay cached", errViolation, rep.Metrics["platform.reads_per_op"].Value))
	}

	if cfg.trace {
		set("trace_overhead", 1-ratio(traced.rate, ph.rate))
		set("collection.query_us", tr.meanUs(spQuery))
		set("collection.deref_us", tr.meanUs(spDeref))
		set("collection.iter_close_us", tr.meanUs(spIterClose))
		probes, err := probeLayers(e, w)
		if err != nil {
			return nil, err
		}
		for name, v := range probes {
			set(name, v)
		}
		if perLookup := tr.meanUs(spQuery) + tr.meanUs(spDeref) + tr.meanUs(spIterClose); perLookup > 0 {
			set("collection.self_share", 1-ratio(probes["objectstore.open_ro_us"], perLookup))
		}
		path := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}

	// Correctness: the Merkle audit, then the workload's own invariants on
	// a recovered handle, then durability from flushed bytes only.
	if err := e.db.Verify(); err != nil {
		violate(fmt.Errorf("%w: verify: %v", errViolation, err))
	}
	if err := e.db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if err := e.open(); err != nil {
		violate(fmt.Errorf("%w: reopen: %v", errViolation, err))
		return rep, violation
	}
	if err := w.check(e.db); err != nil {
		if !errors.Is(err, errViolation) {
			err = fmt.Errorf("%w: %v", errViolation, err)
		}
		violate(err)
	}
	if err := e.db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if commits {
		if err := checkDurability(e, comm); err != nil {
			violate(fmt.Errorf("%w: %v", errViolation, err))
		}
	}
	return rep, violation
}
