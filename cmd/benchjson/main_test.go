package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTableIIFibExperiment   	       1	3444993085 ns/op	        12.26 healthy-avg	        86.49 live-coverage-%	707151208 B/op	21433678 allocs/op
BenchmarkWarmupCalibration-8    	       1	      1513 ns/op	      16 B/op	       1 allocs/op
PASS
ok  	repro	27.175s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || !strings.Contains(doc.CPU, "Xeon") {
		t.Errorf("env header = %q/%q/%q", doc.Goos, doc.Goarch, doc.CPU)
	}
	fib := doc.Benchmarks["BenchmarkTableIIFibExperiment"]
	if fib == nil {
		t.Fatal("fib benchmark missing")
	}
	if fib["ns/op"] != 3444993085 || fib["allocs/op"] != 21433678 || fib["B/op"] != 707151208 {
		t.Errorf("fib perf metrics = %v", fib)
	}
	if fib["healthy-avg"] != 12.26 || fib["live-coverage-%"] != 86.49 {
		t.Errorf("fib custom metrics = %v", fib)
	}
	if _, ok := doc.Benchmarks["BenchmarkWarmupCalibration"]; !ok {
		t.Error("GOMAXPROCS suffix not stripped")
	}
}

func TestGateOneSided(t *testing.T) {
	baseline := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkA":    {"ns/op": 1000, "allocs/op": 100},
		"BenchmarkGone": {"ns/op": 50},
	}}
	tracked := []string{"ns/op", "allocs/op"}

	// 3.2x faster: an improvement must never fail the gate.
	better := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 310, "allocs/op": 1},
	}}
	if regs := gate(baseline, better, tracked, 25); len(regs) != 0 {
		t.Errorf("improvement flagged as drift: %v", regs)
	}

	// Within the gate.
	within := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 1200, "allocs/op": 110},
	}}
	if regs := gate(baseline, within, tracked, 25); len(regs) != 0 {
		t.Errorf("within-gate drift flagged: %v", regs)
	}

	// A real regression fails.
	worse := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 1400, "allocs/op": 90},
	}}
	regs := gate(baseline, worse, tracked, 25)
	if len(regs) != 1 || regs[0].metric != "ns/op" {
		t.Fatalf("regression not caught: %v", regs)
	}
	if got := regs[0].String(); !strings.Contains(got, "40.0%") {
		t.Errorf("regression message = %q", got)
	}

	// Untracked custom metrics never gate.
	custom := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 1000, "allocs/op": 100, "healthy-avg": 99},
	}}
	if regs := gate(baseline, custom, tracked, 25); len(regs) != 0 {
		t.Errorf("untracked metric gated: %v", regs)
	}
}

func TestParseRejectsMalformedValue(t *testing.T) {
	_, err := parse(strings.NewReader("BenchmarkX 1 abc ns/op\n"))
	if err == nil {
		t.Error("malformed value accepted")
	}
}

func TestParseRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "+Inf", "-Inf", "Infinity"} {
		line := "BenchmarkRequestPath 1 " + v + " allocs/op"
		_, err := parse(strings.NewReader("BenchmarkRequestPath 1 0 allocs/op\n" + line + "\n"))
		if err == nil {
			t.Errorf("%s accepted", v)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, strconv.Quote(v)) || !strings.Contains(msg, strconv.Quote(line)) {
			t.Errorf("error for %s names neither the value nor the line: %v", v, err)
		}
	}
}

// TestParseRejectsFailedBenchmark: a benchmark that fails on a later
// run prints "--- FAIL:" after its name, and one that fails on its first
// run prints it on a line of its own; either way parse names it instead
// of reading "FAIL:" as a value or skipping it.
func TestParseRejectsFailedBenchmark(t *testing.T) {
	for _, in := range []string{
		"BenchmarkBigClusterRouting-2   \t--- FAIL: BenchmarkBigClusterRouting-2\n" +
			"    bench_test.go:488: per-request routing cost not flat\n",
		"--- FAIL: BenchmarkBigClusterRouting\n    bench_test.go:488: per-request routing cost not flat\n",
	} {
		_, err := parse(strings.NewReader("BenchmarkBigClusterRouting-2 1 1550 ns/op 0 B/op 0 allocs/op\n" + in + "PASS\n"))
		if err == nil || err.Error() != "benchjson: benchmark BenchmarkBigClusterRouting failed" {
			t.Errorf("parse(%q) = %v, want the failed benchmark named", in, err)
		}
	}
	if _, err := parse(strings.NewReader("--- FAIL: TestUnrelated (0.00s)\n")); err != nil {
		t.Errorf("a failed test line rejected: %v", err)
	}
}

func TestMissingRequired(t *testing.T) {
	doc := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkRequestPath": {"ns/op": 2500, "allocs/op": 0},
		"BenchmarkFig5b":       {"ns/op": 1, "allocs/op": 2},
	}}
	cases := []struct {
		require string
		tracked []string
		want    []string
	}{
		{"", []string{"allocs/op"}, nil},
		{"BenchmarkRequestPath", []string{"allocs/op"}, nil},
		{"BenchmarkRequestPath,BenchmarkFig5b", []string{"ns/op", "allocs/op"}, nil},
		{" BenchmarkRequestPath , BenchmarkFig5b ", []string{"allocs/op"}, nil},
		{"BenchmarkGone", []string{"allocs/op"}, []string{"BenchmarkGone"}},
		{"BenchmarkRequestPath,BenchmarkGone,BenchmarkAlsoGone", []string{"allocs/op"},
			[]string{"BenchmarkGone", "BenchmarkAlsoGone"}},
		{",,", []string{"allocs/op"}, nil},
		// A present benchmark missing a tracked metric (a -benchmem-less
		// run, or a trimmed baseline) is flagged at metric level.
		{"BenchmarkRequestPath", []string{"allocs/op", "B/op"},
			[]string{"BenchmarkRequestPath (B/op)"}},
		{"BenchmarkRequestPath", []string{" allocs/op ", ""}, nil},
	}
	for _, tc := range cases {
		got := missingRequired(doc, tc.require, tc.tracked)
		if len(got) != len(tc.want) {
			t.Errorf("missingRequired(%q, %v) = %v, want %v", tc.require, tc.tracked, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("missingRequired(%q, %v) = %v, want %v", tc.require, tc.tracked, got, tc.want)
				break
			}
		}
	}
}

func TestGateZeroBaselineIsAPromise(t *testing.T) {
	baseline := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkRequestPath": {"allocs/op": 0, "B/op": 0, "ns/op": 2500},
	}}
	clean := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkRequestPath": {"allocs/op": 0, "B/op": 0, "ns/op": 2600},
	}}
	if regs := gate(baseline, clean, []string{"allocs/op", "B/op"}, 25); len(regs) != 0 {
		t.Fatalf("zero staying zero flagged: %v", regs)
	}
	dirty := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkRequestPath": {"allocs/op": 3, "B/op": 96, "ns/op": 2600},
	}}
	regs := gate(baseline, dirty, []string{"allocs/op", "B/op"}, 25)
	if len(regs) != 2 {
		t.Fatalf("zero→nonzero must fail both tracked metrics, got %v", regs)
	}
	for _, r := range regs {
		if r.String() == "" {
			t.Error("empty regression rendering")
		}
	}
}

// TestGateKeepsMinimumOverRepeatedRuns: under -count 3 a zero-alloc
// benchmark that the runtime charges for a stray allocation on one run
// still passes its zero baseline, while one that allocates on every
// run fails it.
func TestGateKeepsMinimumOverRepeatedRuns(t *testing.T) {
	baseline := Doc{Benchmarks: map[string]map[string]float64{
		"BenchmarkFreshSim": {"allocs/op": 0, "B/op": 0},
	}}
	tracked := []string{"allocs/op", "B/op"}
	run := func(allocs ...int) []regression {
		var in strings.Builder
		for _, a := range allocs {
			fmt.Fprintf(&in, "BenchmarkFreshSim-2 1 %d ns/op %d B/op %d allocs/op\n", 1000+a, 1000*a, a)
		}
		doc, err := parse(strings.NewReader(in.String()))
		if err != nil {
			t.Fatal(err)
		}
		return gate(baseline, doc, tracked, 25)
	}
	if regs := run(0, 0, 5); len(regs) != 0 {
		t.Errorf("a stray allocation on one of three runs failed the gate: %v", regs)
	}
	if regs := run(5, 0, 0); len(regs) != 0 {
		t.Errorf("a stray allocation on the first of three runs failed the gate: %v", regs)
	}
	if regs := run(5, 5, 5); len(regs) != 2 {
		t.Errorf("allocating on every run must fail both metrics, got %v", regs)
	}
}

// FuzzParse feeds arbitrary text to parse (the checked-in corpus under
// testdata/fuzz replays in every test run). It must return a document
// or an error without panicking; a parsed document keeps only finite
// values, marshals to JSON, never regresses against itself, and each
// kept metric is at most the value of every line that carries it.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Fuzz(func(t *testing.T, in string) {
		doc, err := parse(strings.NewReader(in))
		if err != nil {
			return
		}
		var tracked []string
		for name, m := range doc.Benchmarks {
			for unit, v := range m {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s %s kept the non-finite value %v", name, unit, v)
				}
				tracked = append(tracked, unit)
			}
		}
		if _, err := json.Marshal(doc); err != nil {
			t.Fatalf("a parsed document does not marshal: %v", err)
		}
		if regs := gate(doc, doc, tracked, 0); len(regs) != 0 {
			t.Fatalf("a document regresses against itself: %v", regs)
		}
		for _, line := range strings.Split(in, "\n") {
			one, err := parse(strings.NewReader(line))
			if err != nil {
				t.Fatalf("line %q fails alone but parsed within the input: %v", line, err)
			}
			for name, m := range one.Benchmarks {
				for unit, v := range m {
					kept, ok := doc.Benchmarks[name][unit]
					if !ok || kept > v {
						t.Fatalf("%s %s kept %v (present %v), above the line value %v", name, unit, kept, ok, v)
					}
				}
			}
		}
	})
}
