// Command benchjson converts `go test -bench` output into a stable JSON
// document and gates it against a committed baseline, so CI can track
// the perf trajectory of the reproduction and fail on regressions.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x -benchmem -count 3 ./... | benchjson -out BENCH_ci.json
//	benchjson -in bench.txt -out BENCH_ci.json -baseline BENCH_ci.json -gate 25
//
// The gate is one-sided: a tracked metric (ns/op, B/op, allocs/op by
// default) fails the run only when it regresses — exceeds the baseline
// by more than -gate percent. Improvements never fail; committing the
// freshly emitted JSON is how the baseline is ratcheted forward.
//
// A benchmark run several times (-count) keeps each metric's minimum
// over its lines. The runtime now and then charges a benchmark for
// allocations that are not its own (an OS thread started as a GC cycle
// begins), which would break a zero baseline outright; a benchmark
// that allocates on every run still fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Doc is the JSON layout: environment header lines plus one metric map
// per benchmark.
type Doc struct {
	Goos       string                        `json:"goos,omitempty"`
	Goarch     string                        `json:"goarch,omitempty"`
	CPU        string                        `json:"cpu,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output. Benchmark lines look like
//
//	BenchmarkName-8   10   123456 ns/op   12.5 custom-metric   64 B/op   2 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs. The -GOMAXPROCS
// suffix is stripped so names are stable across machines, and a name
// seen on several lines keeps each metric's minimum. A benchmark that
// failed prints "--- FAIL: name" instead of its values, after its name
// or on a line of its own; parse rejects the output, naming it.
func parse(r io.Reader) (Doc, error) {
	doc := Doc{Benchmarks: map[string]map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if _, failed, ok := strings.Cut(line, "--- FAIL: "); ok && strings.HasPrefix(failed, "Benchmark") {
			name := procSuffix.ReplaceAllString(strings.Fields(failed)[0], "")
			return doc, fmt.Errorf("benchjson: benchmark %s failed", name)
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue // header or malformed line
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		metrics := doc.Benchmarks[name]
		if metrics == nil {
			metrics = map[string]float64{}
			doc.Benchmarks[name] = metrics
		}
		for i := 2; i+1 < len(fields); i += 2 {
			// ParseFloat takes NaN and ±Inf in any spelling; the gate
			// cannot compare them and JSON cannot carry them.
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return doc, fmt.Errorf("benchjson: bad value %q in line %q", fields[i], line)
			}
			if old, ok := metrics[fields[i+1]]; !ok || v < old {
				metrics[fields[i+1]] = v
			}
		}
	}
	return doc, sc.Err()
}

// regression is one tracked metric exceeding its baseline.
type regression struct {
	bench, metric     string
	baseline, current float64
	driftPct, gatePct float64
}

func (r regression) String() string {
	return fmt.Sprintf("%s %s regressed %.1f%% (baseline %g, current %g, gate %.0f%%)",
		r.bench, r.metric, r.driftPct, r.baseline, r.current, r.gatePct)
}

// gate compares current against baseline on the tracked metrics and
// returns every regression beyond gatePct. Benchmarks present only on
// one side are skipped (added or removed benchmarks are not drift).
func gate(baseline, current Doc, tracked []string, gatePct float64) []regression {
	var regs []regression
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline.Benchmarks[name]
		cur, ok := current.Benchmarks[name]
		if !ok {
			continue
		}
		for _, metric := range tracked {
			b, okB := base[metric]
			c, okC := cur[metric]
			if !okB || !okC || b < 0 {
				continue
			}
			if b == 0 {
				// A zero baseline is a promise (the zero-alloc request
				// path): any nonzero current value breaks it outright —
				// there is no percentage to ratchet against.
				if c > 0 {
					regs = append(regs, regression{
						bench: name, metric: metric,
						baseline: b, current: c,
						driftPct: math.Inf(1), gatePct: gatePct,
					})
				}
				continue
			}
			drift := 100 * (c - b) / b
			if drift > gatePct {
				regs = append(regs, regression{
					bench: name, metric: metric,
					baseline: b, current: c,
					driftPct: drift, gatePct: gatePct,
				})
			}
		}
	}
	return regs
}

// missingRequired returns the entries from the comma-separated require
// list that the document does not fully carry, in list order: the bare
// name when the benchmark is absent, or "name (metric)" when the
// benchmark is present but lacks a tracked metric (e.g. a run without
// -benchmem has no allocs/op to gate).
func missingRequired(doc Doc, require string, tracked []string) []string {
	var missing []string
	for _, name := range strings.Split(require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, ok := doc.Benchmarks[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		for _, metric := range tracked {
			metric = strings.TrimSpace(metric)
			if metric == "" {
				continue
			}
			if _, ok := m[metric]; !ok {
				missing = append(missing, name+" ("+metric+")")
			}
		}
	}
	return missing
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	baselinePath := flag.String("baseline", "", "committed baseline JSON to gate against (empty = no gate)")
	gatePct := flag.Float64("gate", 25, "fail when a tracked metric regresses by more than this percentage")
	track := flag.String("track", "ns/op,allocs/op,B/op", "comma-separated tracked metric units")
	require := flag.String("require", "", "comma-separated benchmark names that must appear in the input (a gated benchmark that silently vanishes — renamed, build-tagged out, crashed — fails the run instead of being skipped)")
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	doc, err := parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	tracked := strings.Split(*track, ",")
	for i := range tracked {
		tracked[i] = strings.TrimSpace(tracked[i])
	}
	if missing := missingRequired(doc, *require, tracked); len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: required benchmarks missing from input: %s\n",
			strings.Join(missing, ", "))
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(buf)
	}

	if *baselinePath == "" {
		return
	}
	baseBuf, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var baseline Doc
	if err := json.Unmarshal(baseBuf, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: bad baseline %s: %v\n", *baselinePath, err)
		os.Exit(1)
	}
	// The baseline must carry the required benchmarks too: gate()
	// skips metrics absent from the baseline, so a stale or trimmed
	// BENCH_ci.json would otherwise silently disarm the ratchet while
	// -require kept passing on the fresh output.
	if missing := missingRequired(baseline, *require, tracked); len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: required benchmarks missing from baseline %s: %s (re-ratchet the baseline)\n",
			*baselinePath, strings.Join(missing, ", "))
		os.Exit(1)
	}
	regs := gate(baseline, doc, tracked, *gatePct)
	for _, reg := range regs {
		fmt.Fprintln(os.Stderr, reg)
	}
	if len(regs) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within %.0f%% of baseline\n",
		len(doc.Benchmarks), *gatePct)
}
