// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark runs can be archived, diffed, and gated in
// CI. It reads benchmark lines from stdin and writes one JSON object to
// the -o file (stdout by default):
//
//	go test -bench . -benchmem -run '^$' . | benchjson -o BENCH_hotpath.json
//
// With -baseline FILE, the "baseline" section of an earlier benchjson
// document is carried over verbatim — and if FILE has no baseline section,
// its results become the baseline — so a single output file records the
// before/after pair across a change.
//
// With -guard, the run becomes a regression gate: after writing the
// document, the tool exits non-zero if any benchmark's Mpps fell more than
// -mpps-drop below its baseline, or any reported scaling efficiency is
// below -eff-floor. Benchmarks absent from the baseline pass (first run
// establishes them). A row whose name carries a worker count (".../w8")
// above its run's GOMAXPROCS is archived but not held to -eff-floor: its
// workers share cores, so its efficiency measures the host, not the
// pipeline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed metrics. Only ns/op is guaranteed;
// the remaining fields appear when the benchmark reports them.
type Result struct {
	Iterations int64    `json:"iterations"`
	NsPerOp    float64  `json:"ns_per_op"`
	AllocsOp   *float64 `json:"allocs_per_op,omitempty"`
	BytesOp    *float64 `json:"bytes_per_op,omitempty"`
	MBPerSec   *float64 `json:"mb_per_s,omitempty"`
	MPPS       *float64 `json:"mpps,omitempty"`
	ScalingEff *float64 `json:"scaling_eff,omitempty"`
	// CacheHitRate is reported by the hot-cache benchmarks; its presence
	// additionally puts the benchmark under the -ns-rise guard, because a
	// cached accumulate that slows down has lost the point of the cache.
	CacheHitRate *float64 `json:"cache_hit_rate,omitempty"`
	// Procs is the run's GOMAXPROCS, read off the name's suffix (none
	// means 1); 0 when unknown. Not archived: names are host-independent.
	Procs int `json:"-"`
}

// Document is the file layout: results keyed by benchmark name (CPU
// suffix stripped), plus optional environment lines and a carried-over
// baseline from a previous run.
type Document struct {
	GoOS     string            `json:"goos,omitempty"`
	GoArch   string            `json:"goarch,omitempty"`
	CPU      string            `json:"cpu,omitempty"`
	Results  map[string]Result `json:"results"`
	Baseline map[string]Result `json:"baseline,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out      = flag.String("o", "", "output file (default stdout)")
		baseline = flag.String("baseline", "", "earlier benchjson document whose results become (or carry over as) the baseline")
		guard    = flag.Bool("guard", false, "fail on Mpps regression vs baseline or scaling efficiency below the floor")
		mppsDrop = flag.Float64("mpps-drop", 0.10, "with -guard: max allowed fractional Mpps drop vs baseline")
		effFloor = flag.Float64("eff-floor", 0.60, "with -guard: minimum allowed scaling efficiency")
		nsRise   = flag.Float64("ns-rise", 0.10, "with -guard: max allowed fractional ns/op rise vs baseline for benchmarks reporting cache_hit_rate")
	)
	flag.Parse()

	doc := Document{Results: map[string]Result{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, res, err := parseLine(line)
			if err != nil {
				return fmt.Errorf("parse %q: %w", line, err)
			}
			doc.Results[name] = res
		}
		// Echo everything through so the tool can sit inside a pipe
		// without hiding failures or PASS/FAIL trailers.
		fmt.Println(line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(doc.Results) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}

	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			return err
		}
		doc.Baseline = base
	}

	blob, err := json.MarshalIndent(ordered(doc), "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(blob); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	if *guard {
		return checkGuard(doc, *mppsDrop, *effFloor, *nsRise)
	}
	return nil
}

// checkGuard enforces the throughput gate: every benchmark with an Mpps
// metric in both sections must hold at least (1-mppsDrop)× its baseline,
// every reported scaling efficiency must clear effFloor, and every
// benchmark reporting a cache hit rate must keep its ns/op within
// (1+nsRise)× of baseline — the cached accumulate path must never regress
// past its recorded cost.
func checkGuard(doc Document, mppsDrop, effFloor, nsRise float64) error {
	var fails []string
	names := make([]string, 0, len(doc.Results))
	for n := range doc.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res := doc.Results[n]
		if res.MPPS != nil {
			if base, ok := doc.Baseline[n]; ok && base.MPPS != nil {
				floor := *base.MPPS * (1 - mppsDrop)
				if *res.MPPS < floor {
					fails = append(fails, fmt.Sprintf(
						"%s: %.2f Mpps below guard %.2f (baseline %.2f, max drop %.0f%%)",
						n, *res.MPPS, floor, *base.MPPS, mppsDrop*100))
				}
			}
		}
		if res.ScalingEff != nil && *res.ScalingEff < effFloor {
			if w, ok := workersOf(n); ok && res.Procs > 0 && w > res.Procs {
				fmt.Fprintf(os.Stderr, "benchjson: %s: scaling efficiency %.3f not gated (%d workers on GOMAXPROCS %d)\n",
					n, *res.ScalingEff, w, res.Procs)
			} else {
				fails = append(fails, fmt.Sprintf(
					"%s: scaling efficiency %.3f below floor %.2f",
					n, *res.ScalingEff, effFloor))
			}
		}
		if res.CacheHitRate != nil {
			if base, ok := doc.Baseline[n]; ok && base.CacheHitRate != nil && base.NsPerOp > 0 {
				ceil := base.NsPerOp * (1 + nsRise)
				if res.NsPerOp > ceil {
					fails = append(fails, fmt.Sprintf(
						"%s: %.1f ns/op above guard %.1f (baseline %.1f, max rise %.0f%%)",
						n, res.NsPerOp, ceil, base.NsPerOp, nsRise*100))
				}
			}
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("guard failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   1000  123.4 ns/op  5 B/op  2 allocs/op  8.07 Mpps
func parseLine(line string) (string, Result, error) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return "", Result{}, fmt.Errorf("want at least 4 fields, have %d", len(f))
	}
	name, procs := f[0], 1 // go test leaves the suffix off at GOMAXPROCS 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix so names are stable across hosts.
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", Result{}, fmt.Errorf("iterations: %w", err)
	}
	res := Result{Iterations: iters, Procs: procs}
	sawNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", Result{}, fmt.Errorf("metric value %q: %w", f[i], err)
		}
		switch f[i+1] {
		case "ns/op":
			res.NsPerOp = v
			sawNs = true
		case "allocs/op":
			res.AllocsOp = &v
		case "B/op":
			res.BytesOp = &v
		case "MB/s":
			res.MBPerSec = &v
		case "Mpps":
			res.MPPS = &v
		case "scaling_eff":
			res.ScalingEff = &v
		case "cache_hit_rate":
			res.CacheHitRate = &v
		}
	}
	if !sawNs {
		return "", Result{}, fmt.Errorf("no ns/op metric")
	}
	return name, res, nil
}

// workersOf reads the worker count a sub-benchmark name ends in
// ("BenchmarkPipelineScaling/w8" → 8).
func workersOf(name string) (int, bool) {
	i := strings.LastIndex(name, "/w")
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(name[i+2:])
	return n, err == nil
}

// loadBaseline extracts the comparison section from an earlier document:
// its baseline if it has one, otherwise its results.
func loadBaseline(path string) (map[string]Result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Baseline) > 0 {
		return doc.Baseline, nil
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("%s: no results or baseline section", path)
	}
	return doc.Results, nil
}

// ordered re-marshals the document with deterministically sorted keys.
// encoding/json already sorts map keys, so this is just a stable wrapper
// that keeps the section order fixed.
func ordered(doc Document) any {
	type out struct {
		GoOS     string            `json:"goos,omitempty"`
		GoArch   string            `json:"goarch,omitempty"`
		CPU      string            `json:"cpu,omitempty"`
		Names    []string          `json:"benchmarks"`
		Results  map[string]Result `json:"results"`
		Baseline map[string]Result `json:"baseline,omitempty"`
	}
	names := make([]string, 0, len(doc.Results))
	for n := range doc.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	return out{
		GoOS:     doc.GoOS,
		GoArch:   doc.GoArch,
		CPU:      doc.CPU,
		Names:    names,
		Results:  doc.Results,
		Baseline: doc.Baseline,
	}
}
