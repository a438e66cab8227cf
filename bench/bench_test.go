package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at 1/20 scale, untraced and traced, and
// holds the harness to its contract: the metric tables in main.go are the
// ones BENCHMARK.json names, every metric is emitted exactly once per
// workload, and the output line parses. It keeps the harness compiling
// and honest as the layers it calls into change.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	sameTable := func(kind string, defs []metricDef, n int, at func(int) (string, string)) {
		t.Helper()
		if len(defs) != n {
			t.Fatalf("%s: main.go lists %d metrics, BENCHMARK.json %d", kind, len(defs), n)
		}
		for i, d := range defs {
			fn, fu := at(i)
			if d.name != fn || d.unit != fu {
				t.Errorf("%s metric %d: main.go has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, fn, fu)
			}
			if !name.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s metric %q: malformed or repeated name", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	sameTable("end_to_end", endToEnd, len(bf.EndToEnd), func(i int) (string, string) { return bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit })
	sameTable("per_layer", perLayer, len(bf.PerLayer), func(i int) (string, string) { return bf.PerLayer[i].Name, bf.PerLayer[i].Unit })
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, main.go %d", len(bf.Workloads), len(workloadNames))
	}

	out := t.TempDir()
	for i, w := range workloadNames {
		if bf.Workloads[i].Name != w {
			t.Errorf("workload %d: BENCHMARK.json has %q, main.go %q", i, bf.Workloads[i].Name, w)
		}
		for _, traced := range []bool{false, true} {
			res, r, err := measure(w, 7, 0.2, traced, 20, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w, traced, res.Failed, res.Attempted, r.problems)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &back); err != nil || back.Correct == nil || back.Attempted == nil || back.Failed == nil {
				t.Fatalf("%s traced=%v: output does not parse: %v: %s", w, traced, err, line)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(back.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w, traced, len(back.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := back.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s [%s] missing or mislabelled", w, traced, d.name, d.unit)
				}
				if !traced && ok && m.Value != nil && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", w, d.name, *m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace.json")); err != nil {
			t.Errorf("%s: traced run left no trace.json: %v", w, err)
		}
	}
	left, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Errorf("runs left %d entries in the output directory, want only trace.json", len(left))
	}
}
