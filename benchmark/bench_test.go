package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the code to.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []jsonMetric            `json:"end_to_end"`
	PerLayer  []jsonMetric            `json:"per_layer"`
}

type jsonMetric struct{ Name, Unit string }

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// Every workload smoke-runs at the short size, untraced and traced, passes
// its correctness and durability checks with no failed operation, and the
// command's last line names exactly the metrics BENCHMARK.json lists, with
// their units.
func TestWorkloadsReportTheMetricsOfBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				if raceDetector && (name == "update-c2" || name == "scan-vs-writer") {
					// Not the benchmark's race: see "A defect this benchmark
					// found" in README.md.
					t.Skip("tdb.Open shares one unlocked lru.Pool between two layers with two mutexes; concurrent transactions race on it")
				}
				var out bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", trace, "-short"}, &out, t.TempDir())
				if code != 0 {
					t.Fatalf("exit code %d\n%s", code, out.String())
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var fields map[string]json.RawMessage
				if err := json.Unmarshal(lines[len(lines)-1], &fields); err != nil {
					t.Fatal(err)
				}
				var keys []string
				for k := range fields {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
					t.Fatalf("last line has keys %v, want %v", keys, want)
				}
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v; must never be 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// The metric tables in main.go and BENCHMARK.json say the same thing.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, tc := range []struct {
		what string
		defs []metricDef
		json []jsonMetric
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		var got []jsonMetric
		for _, d := range tc.defs {
			got = append(got, jsonMetric{d.name, d.unit})
		}
		if !reflect.DeepEqual(got, tc.json) {
			t.Errorf("%s: code has %v, BENCHMARK.json has %v", tc.what, got, tc.json)
		}
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestSeededGeneratorsReproduce(t *testing.T) {
	stream := func(seed int64) []int64 {
		var s []int64
		tp := newTPCB(seed, shortSizes)
		for i := 0; i < 50; i++ {
			op := tp.next()
			s = append(s, int64(op.account), int64(op.teller), int64(op.branch), op.delta)
		}
		up := newUpdateC2(seed, shortSizes)
		rd := newReads(seed, shortSizes, shortSizes.records)
		for c := 0; c < 2; c++ {
			for i := 0; i < 50; i++ {
				s = append(s, int64(up.zipf[c].Uint64()), int64(rd.rngs[c].Intn(rd.span)))
			}
		}
		sc := newScanVsWriter(seed, shortSizes)
		for i := 0; i < 50; i++ {
			s = append(s, sc.nextStart(), sc.nextWrite())
		}
		return append(s, int64(newLicence(seed, 3).Payload[100]))
	}
	if a, b := stream(5), stream(5); !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if a, b := stream(5), stream(6); reflect.DeepEqual(a, b) {
		t.Error("different seeds gave the same inputs")
	}
}

func TestLicenceCheckCatchesWrongBytes(t *testing.T) {
	l := newLicence(1, 9)
	if err := l.check(9); err != nil {
		t.Fatalf("fresh record: %v", err)
	}
	l.bump()
	if err := l.check(9); err != nil || l.revision() != 1 {
		t.Fatalf("after bump: revision %d, %v", l.revision(), err)
	}
	if err := l.check(10); err == nil {
		t.Error("record 9 passed as record 10")
	}
	stale := newLicence(1, 9)
	stale.Payload[7] = 1 // revision forged without its checksum
	if err := stale.check(9); err == nil {
		t.Error("forged revision passed")
	}
	l.Payload[500] ^= 1
	if err := l.check(9); err == nil {
		t.Error("flipped filler bit passed")
	}
}
