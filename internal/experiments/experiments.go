// Package experiments contains one runner per figure/table of the paper's
// evaluation (Section V). Each runner builds its workload, sweeps the
// parameter the figure varies, and returns a Report whose rows mirror the
// series the paper plots. cmd/instabench prints these reports;
// bench_test.go wraps them in testing.B benchmarks.
//
// Scale-down: the paper's CAIDA workload is 3.7 B packets / 78 M flows and
// its campus workload 9.1 B packets over 113 hours. The default Scale here
// reproduces the same distributions at millions of packets so every figure
// regenerates in seconds; each report records the scale used so shape
// comparisons stay honest.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"instameasure/internal/trace"
)

// Scale sets workload sizes for the experiment runners.
type Scale struct {
	// Flows and Packets size the CAIDA-like trace.
	Flows   int
	Packets int
	// DiurnalHours and DiurnalPackets size the campus-like trace.
	DiurnalHours   float64
	DiurnalPackets int
	// Seed drives all generators.
	Seed uint64
}

// Predefined scales.
var (
	// ScaleSmall finishes each experiment in well under a second; used by
	// unit tests and -short benchmarks.
	ScaleSmall = Scale{
		Flows: 20_000, Packets: 400_000,
		DiurnalHours: 24, DiurnalPackets: 300_000,
		Seed: 2019,
	}
	// ScaleDefault is the instabench default: big enough for stable
	// percentages, small enough for an interactive run.
	ScaleDefault = Scale{
		Flows: 100_000, Packets: 2_000_000,
		DiurnalHours: 113, DiurnalPackets: 2_000_000,
		Seed: 2019,
	}
	// ScaleLarge pushes toward the paper's flow/packet ratio for final
	// reported numbers.
	ScaleLarge = Scale{
		Flows: 400_000, Packets: 8_000_000,
		DiurnalHours: 113, DiurnalPackets: 8_000_000,
		Seed: 2019,
	}
)

// Report is one experiment's regenerated figure/table.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics carries machine-readable headline numbers alongside the
	// formatted rows. Print does not show them; BenchmarkFig9aCores reads
	// Fig. 9a's "mpps" and "scaling_eff", and the shape tests read
	// "utilization" (Fig. 12) and "hit_rate" (hotcache).
	Metrics map[string]float64
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cols ...string) {
	r.Rows = append(r.Rows, cols)
}

// SetMetric records one headline number under a bench-metric unit name
// (e.g. "mpps", "scaling_eff").
func (r *Report) SetMetric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// AddNote appends a free-form note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(r.Header)
	printRow(dashes(widths))
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, n := range widths {
		out[i] = strings.Repeat("-", n)
	}
	return out
}

// caidaTrace builds (and memoizes per Scale value) the CAIDA-like workload.
func caidaTrace(s Scale) (*trace.Trace, error) {
	key := fmt.Sprintf("caida-%d-%d-%d", s.Flows, s.Packets, s.Seed)
	if tr, ok := traceCache[key]; ok {
		return tr, nil
	}
	tr, err := trace.GenerateZipf(trace.ZipfConfig{
		Flows:        s.Flows,
		TotalPackets: s.Packets,
		Seed:         s.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("caida-like trace: %w", err)
	}
	traceCache[key] = tr
	return tr, nil
}

// campusTrace builds (and memoizes) the campus-like diurnal workload.
func campusTrace(s Scale) (*trace.Trace, error) {
	key := fmt.Sprintf("campus-%v-%d-%d", s.DiurnalHours, s.DiurnalPackets, s.Seed)
	if tr, ok := traceCache[key]; ok {
		return tr, nil
	}
	tr, err := trace.GenerateDiurnal(trace.DiurnalConfig{
		Hours:        s.DiurnalHours,
		TotalPackets: s.DiurnalPackets,
		Seed:         s.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("campus-like trace: %w", err)
	}
	traceCache[key] = tr
	return tr, nil
}

// traceCache memoizes generated traces across runners within one process —
// instabench runs all figures in sequence and most share their workload.
var traceCache = map[string]*trace.Trace{}

func pct(x float64) string  { return fmt.Sprintf("%.3f%%", x*100) }
func pct2(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }

// Experiment is one runner of the suite: the id it is reported and
// selected by, the short alias instabench -fig also accepts ("" for none),
// and the function that regenerates it.
type Experiment struct {
	ID, Alias string
	Run       func(Scale) (*Report, error)
}

// Experiments is the suite in figure order: the paper's figures, its
// §V.C and §VI comparisons, then the ablations of its design choices and
// the hot-cache tier. All, ByID and instabench's -fig help all read it.
var Experiments = []Experiment{
	{"fig1", "1", Fig1RCCSaturation},
	{"fig6", "6", Fig6Distributions},
	{"fig7", "7", Fig7Relaxation},
	{"fig8a", "8a", Fig8aRetention},
	{"fig8b", "8b", Fig8bSaturationFrequency},
	{"fig8c", "8c", Fig8cAccuracy},
	{"fig9a", "9a", Fig9aCoreScaling},
	{"fig9b", "9b", Fig9bDetectionLatency},
	{"fig10", "10", Fig10PacketAccuracy},
	{"fig11", "11", Fig11ByteAccuracy},
	{"fig12", "12", Fig12Monitoring},
	{"fig13", "13", Fig13WildAccuracy},
	{"fig14", "14", Fig14HeavyHitterRates},
	{"csm", "", CSMComparison},
	{"iblt", "", IBLTComparison},
	{"evict", "", AblationEviction},
	{"probe", "", AblationProbing},
	{"shard", "", AblationShardingQuality},
	{"layers", "", LayersSweep},
	{"hotcache", "", HotCacheAccuracy},
}

// All runs every experiment at the given scale, in figure order.
func All(s Scale) ([]*Report, error) {
	out := make([]*Report, 0, len(Experiments))
	for _, e := range Experiments {
		rep, err := e.Run(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// ByID runs a single experiment by its id or alias (e.g. "fig8a", "8a",
// "csm").
func ByID(id string, s Scale) (*Report, error) {
	e, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure id %q", id)
	}
	return e.Run(s)
}

// lookup finds the experiment whose id or alias is id, in any case.
func lookup(id string) (Experiment, bool) {
	id = strings.ToLower(id)
	for _, e := range Experiments {
		if id == e.ID || (e.Alias != "" && id == e.Alias) {
			return e, true
		}
	}
	return Experiment{}, false
}
