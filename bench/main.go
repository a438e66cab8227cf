// Command bench is the repository benchmark: four workloads that between
// them cover the path from wire bytes to fleet alert, a small set of
// end-to-end metrics measured with tracing off, and a per-layer ledger
// measured from outside the program with tracing on. See README.md.
//
// One run measures one workload:
//
//	go run -C bench . --workload zipf_hot --seed 1 --seconds 20 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics. Without --workload
// the whole suite runs (every workload, untraced then traced); with
// -selfcheck it runs twice and compares the two against the bounds in
// BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricDef names one metric and its unit; the two tables below are the
// benchmark's contract and must match BENCHMARK.json (bench_test.go
// checks that they do).
type metricDef struct{ name, unit string }

// endToEnd is measured with tracing off. Every workload reports every
// one: each names a role every workload plays (ingest, cut an epoch,
// answer a top-k query, be accurate), so none is ever zero or absent.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_mps", "M/s"},
	{"epoch_cut_ms_p50", "ms"},
	{"query_ms_p50", "ms"},
	{"top1k_accuracy", "ratio"},
}

// endToEndVals shapes a workload's untraced samples into the end-to-end
// set. Latencies are bounded at the median only: on a shared two-core
// host a tail percentile swings by more than any bound the contract
// allows, so the tails are reported, unbounded, by tailVals.
func endToEndVals(setupS, ingestPerS float64, cutS, queryS []float64, accuracy float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          setupS,
		"ingest_mps":       ingestPerS / 1e6,
		"epoch_cut_ms_p50": 1e3 * median(cutS),
		"query_ms_p50":     1e3 * median(queryS),
		"top1k_accuracy":   accuracy,
	}
}

// tailVals adds the traced run's reference section's tails to vals: the
// 80th percentile, the highest that leaves ten samples beyond it on the
// workload with the fewest passes.
func tailVals(vals map[string]float64, cutS, queryS []float64) {
	vals["run.epoch_cut_ms_p80"] = 1e3 * quantile(cutS, 0.8)
	vals["run.query_ms_p80"] = 1e3 * quantile(queryS, 0.8)
}

// perLayer is measured with tracing on, <package>.<metric>; a layer that
// is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	{"pcap.read_ns_per_pkt", "ns"},
	{"pcap.bytes_per_pkt", "B"},
	{"packet.parse_ns_per_pkt", "ns"},
	{"packet.skip_ratio", "ratio"},
	{"packet.allocs_per_kpkt", "count"},
	{"trace.readpcap_ns_per_pkt", "ns"},
	{"trace.readpcap_allocs_per_kpkt", "count"},
	{"flowhash.hash_ns_per_pkt", "ns"},
	{"rcc.locate_ns_per_pkt", "ns"},
	{"rcc.encode_ns_per_pkt", "ns"},
	{"flowreg.process_ns_per_pkt", "ns"},
	{"flowreg.pass_ratio", "ratio"},
	{"flowreg.l1_saturation_ratio", "ratio"},
	{"hotcache.bump_ns_per_pkt", "ns"},
	{"hotcache.hit_ratio", "ratio"},
	{"hotcache.promotions_per_kpkt", "count"},
	{"hotcache.fold_drops", "count"},
	{"wsaf.accumulate_ns_per_op", "ns"},
	{"wsaf.ops_per_kpkt", "count"},
	{"wsaf.evictions_per_kop", "count"},
	{"wsaf.load_factor", "ratio"},
	{"core.batch_ns_per_pkt", "ns"},
	{"core.batch_uncached_ns_per_pkt", "ns"},
	{"core.scalar_ns_per_pkt", "ns"},
	{"core.allocs_per_kpkt", "count"},
	{"core.attribution_gap_ns", "ns"},
	{"core.top1k_are", "ratio"},
	{"pipeline.run_ns_per_pkt", "ns"},
	{"pipeline.manager_ns_per_pkt", "ns"},
	{"pipeline.busy_ratio", "ratio"},
	{"pipeline.imbalance", "ratio"},
	{"pipeline.dropped_ratio", "ratio"},
	{"detect.hh_recall", "ratio"},
	{"detect.hh_err_pkts_p50", "pkts"},
	{"detect.hh_err_pkts_p90", "pkts"},
	{"detect.observe_ns_per_rec", "ns"},
	{"detect.groups", "count"},
	{"export.encode_ns_per_rec", "ns"},
	{"export.decode_ns_per_rec", "ns"},
	{"export.bytes_per_rec", "B"},
	{"export.send_ms_per_batch", "ms"},
	{"export.deliver_ms_per_batch", "ms"},
	{"export.failed_batches", "count"},
	{"store.append_ns_per_rec", "ns"},
	{"store.bytes_per_rec", "B"},
	{"store.topk_ms", "ms"},
	{"store.timeline_ms", "ms"},
	{"store.changers_ms", "ms"},
	{"store.segments", "count"},
	{"store.reopen_scan_ms", "ms"},
	{"fleet.ingest_ns_per_rec", "ns"},
	{"fleet.topk_ms", "ms"},
	{"fleet.alerts", "count"},
	{"fleet.cut_to_alert_ms_p50", "ms"},
	{"fleet.commit_residual_ms", "ms"},
	{"fleet.alert_residual_ms", "ms"},
	{"telemetry.scrape_ms", "ms"},
	{"run.epoch_cut_ms_p80", "ms"},
	{"run.query_ms_p80", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

var workloadNames = []string{"zipf_hot", "mice_churn", "wire_cluster", "epoch_fleet"}

// run is one measurement of one workload.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	workers  int
	// shrink divides every input size; 1 outside the smoke test.
	shrink int
	outDir string
	// rec is nil when tracing is off.
	rec *recorder

	attempted, failed int64
	problems          []string
}

// ops counts n operations of which failed did not succeed.
func (r *run) ops(n, failed int64) {
	r.attempted += n
	r.failed += failed
}

// check counts one correctness check against exact truth.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// meterSeed is the program-side seed derived from the workload seed: a
// run is reproducible from --seed alone.
func (r *run) meterSeed() uint64 { return derive(r.seed, 99) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// measure runs one workload and shapes its metrics to the contract:
// exactly the end-to-end set untraced, exactly the per-layer set traced.
func measure(workload string, seed uint64, seconds float64, traced bool, shrink int, outDir string) (result, *run, error) {
	r := &run{workload: workload, seed: seed, seconds: seconds, workers: workers(), shrink: shrink, outDir: outDir}
	if traced {
		r.rec = newRecorder(workload)
	}
	var vals map[string]float64
	var err error
	switch workload {
	case "zipf_hot":
		vals, err = r.runMeter(meterSpec{flows: 50_000, zipfPkts: 2_000_000, skew: 1.1})
	case "mice_churn":
		vals, err = r.runMeter(meterSpec{flows: 1_000_000, zipfPkts: 3_000_000, skew: 0.5})
	case "wire_cluster":
		vals, err = r.runWire()
	case "epoch_fleet":
		vals, err = r.runFleet()
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return result{}, r, err
	}
	if traced {
		if werr := r.rec.write(filepath.Join(outDir, "trace.json")); werr != nil {
			return result{}, r, werr
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return res, r, nil
}

func workers() int { return min(runtime.NumCPU(), 4) }

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func header(w *os.File, seed uint64) {
	fmt.Fprintf(w, "# bench: workload_seed=%d meter_seed=%d nproc=%d GOMAXPROCS=%d workers=%d go=%s cpu=%q commit=%s\n",
		seed, derive(seed, 99), runtime.NumCPU(), runtime.GOMAXPROCS(0), workers(), runtime.Version(), cpuModel(), commit())
}

func printMetrics(w *os.File, workload string, traced bool, res result) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-13s %-32s %14.6g %s\n", workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%-13s %-32s %14d of %d\n", workload, "failed", res.Failed, res.Attempted)
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run; empty runs the whole suite")
		seed      = flag.Uint64("seed", 1, "workload seed: changes every generated input and nothing else")
		seconds   = flag.Float64("seconds", 20, "length of the timed section of one run")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and compare every end-to-end metric against its bound")
		out       = flag.String("out", filepath.Join("out", "result.json"), "suite mode: where the full result is written")
	)
	flag.Parse()
	runtime.GOMAXPROCS(workers())
	outDir := filepath.Dir(*out)

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds, *out)
	case *workload == "":
		err = runSuite(*seed, *seconds, *out)
	default:
		header(os.Stderr, *seed)
		var res result
		var r *run
		res, r, err = measure(*workload, *seed, *seconds, *traced != 0, 1, outDir)
		if err != nil {
			break
		}
		printMetrics(os.Stderr, *workload, *traced != 0, res)
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "FAILED CHECK:", p)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runChild measures one workload in a fresh process — this same binary,
// invoked the way the driver invokes it — and waits for it to end, so the
// suite and the self-check see what a single run sees: a heap nobody
// else has grown.
func runChild(workload string, seed uint64, seconds float64, traced bool, out string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "-out", out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return result{}, fmt.Errorf("%s: %v: %s", workload, err, strings.TrimSpace(stderr.String()))
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: checks failed: %s", workload, strings.TrimSpace(stderr.String()))
	}
	return res, nil
}

// suiteResult is what suite mode writes to -out.
type suiteResult struct {
	Seed      uint64            `json:"workload_seed"`
	MeterSeed uint64            `json:"meter_seed"`
	NProc     int               `json:"nproc"`
	MaxProcs  int               `json:"gomaxprocs"`
	Workers   int               `json:"workers"`
	Go        string            `json:"go"`
	CPU       string            `json:"cpu"`
	Commit    string            `json:"commit"`
	EndToEnd  map[string]result `json:"end_to_end"`
	PerLayer  map[string]result `json:"per_layer"`
}

// runSuite measures every workload untraced, then traced, prints every
// metric by name and unit, and fails if any check did.
func runSuite(seed uint64, seconds float64, out string) error {
	header(os.Stdout, seed)
	sr := suiteResult{Seed: seed, MeterSeed: derive(seed, 99), NProc: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0),
		Workers: workers(), Go: runtime.Version(), CPU: cpuModel(), Commit: commit(),
		EndToEnd: map[string]result{}, PerLayer: map[string]result{}}
	var failed error
	for _, traced := range []bool{false, true} {
		for _, w := range workloadNames {
			res, err := runChild(w, seed, seconds, traced, out)
			if err != nil {
				if res.Metrics == nil {
					return err
				}
				failed = errors.Join(failed, err)
			}
			printMetrics(os.Stdout, w, traced, res)
			if traced {
				sr.PerLayer[w] = res
			} else {
				sr.EndToEnd[w] = res
			}
		}
	}
	b, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return failed
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// runSelfcheck is the noise calibration: the suite's untraced half, twice
// on the same code, with every end-to-end metric's relative difference,
// in either direction, set against its bound. It fails when any
// difference exceeds its bound.
func runSelfcheck(seed uint64, seconds float64, out string) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	header(os.Stdout, seed)
	var rounds [2]map[string]result
	for i := range rounds {
		rounds[i] = map[string]result{}
		for _, w := range workloadNames {
			res, err := runChild(w, seed, seconds, false, out)
			if err != nil {
				return err
			}
			rounds[i][w] = res
		}
	}
	fmt.Printf("| %-16s | %-12s | %12s | %12s | %8s | %6s | %s |\n", "metric", "workload", "run 1", "run 2", "differ", "bound", "ok")
	fmt.Println("|---|---|---|---|---|---|---|")
	bad := 0
	for _, m := range bf.EndToEnd {
		for _, w := range workloadNames {
			a, b := rounds[0][w].Metrics[m.Name].Value, rounds[1][w].Metrics[m.Name].Value
			diff := math.Abs(b-a) / a
			ok := "yes"
			if diff > m.Bound {
				ok = "NO"
				bad++
			}
			fmt.Printf("| %-16s | %-12s | %12.6g | %12.6g | %7.2f%% | %5.1f%% | %s |\n", m.Name, w, a, b, 100*diff, 100*m.Bound, ok)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairs differ by more than their bound", bad)
	}
	return nil
}
