package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tinyScale keeps each runner fast; shape assertions use small bands.
var tinyScale = Scale{
	Flows: 8_000, Packets: 150_000,
	DiurnalHours: 12, DiurnalPackets: 120_000,
	Seed: 2019,
}

func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.Fields(cell)[0]
	cell = strings.TrimSuffix(cell, "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", cell, err)
	}
	return v / 100
}

func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(strings.Fields(cell)[0], "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", cell, err)
	}
	return v
}

func TestFig1ShapeRCCAboveMargin(t *testing.T) {
	rep, err := Fig1RCCSaturation(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (8- and 16-bit)", len(rep.Rows))
	}
	r8 := parsePct(t, rep.Rows[0][2])
	r16 := parsePct(t, rep.Rows[1][2])
	if r8 < 0.05 || r8 > 0.30 {
		t.Errorf("8-bit RCC rate %.3f outside plausible band", r8)
	}
	if r16 >= r8 {
		t.Errorf("16-bit rate %.3f not below 8-bit rate %.3f", r16, r8)
	}
	if rep.Rows[0][3] != "no" {
		t.Error("8-bit RCC must not fit the DRAM margin — that is the paper's motivation")
	}
}

func TestFig6ShapeZipf(t *testing.T) {
	rep, err := Fig6Distributions(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	// First bucket of each dataset ([1,10) mice) must hold the majority.
	for _, row := range rep.Rows {
		if strings.HasPrefix(row[1], "[1, 10)") {
			if share := parsePct(t, row[3]); share < 0.5 {
				t.Errorf("%s mice share %.2f < 50%% — not Zipf-like", row[0], share)
			}
		}
	}
}

func TestFig7ShapeFlowRegulatorBelowRCC(t *testing.T) {
	rep, err := Fig7Relaxation(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no timeline rows")
	}
	for _, row := range rep.Rows {
		rcc := parsePct(t, row[3])
		fr := parsePct(t, row[5])
		if fr >= rcc {
			t.Errorf("bucket %s: FR rate %.4f not below RCC rate %.4f", row[0], fr, rcc)
		}
		if fr > 0.05 {
			t.Errorf("bucket %s: FR rate %.4f above 5%%", row[0], fr)
		}
	}
}

func TestFig8aShapeMultiplicativeGrowth(t *testing.T) {
	rep, err := Fig8aRetention(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var prevFR float64
	for i, row := range rep.Rows {
		fr := parseFloat(t, row[2])
		if i > 0 && fr <= prevFR {
			t.Errorf("FR retention not growing at row %d", i)
		}
		prevFR = fr
	}
	// At 16 bits and beyond, FR must outretain RCC (paper's claim).
	for _, row := range rep.Rows[1:] {
		if parseFloat(t, row[2]) <= parseFloat(t, row[1]) {
			t.Errorf("vv=%s: FR %s not above RCC %s", row[0], row[2], row[1])
		}
	}
}

func TestFig8bShapeFrequencyInverse(t *testing.T) {
	rep, err := Fig8bSaturationFrequency(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows[1:] {
		if parseFloat(t, row[2]) >= parseFloat(t, row[1]) {
			t.Errorf("vv=%s: FR frequency not below RCC's", row[0])
		}
	}
}

func TestFig8cShapeBothAccurate(t *testing.T) {
	rep, err := Fig8cAccuracy(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		rccErr := parsePct(t, row[1])
		frErr := parsePct(t, row[2])
		if rccErr > 0.10 || frErr > 0.10 {
			t.Errorf("vv=%s: errors %.3f/%.3f above 10%%", row[0], rccErr, frErr)
		}
	}
}

func TestFig9aShapeModeledScaling(t *testing.T) {
	rep, err := Fig9aCoreScaling(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rep.Rows))
	}
	// The shape is asserted on counted work — packets over the busiest
	// worker's packets under the popcount policy, exact and clock-free. The
	// host and aggregate Mpps columns read a clock (and share the host with
	// every other test package), so they are reported, not asserted.
	var prev float64
	for i, row := range rep.Rows {
		sp, imb := parseFloat(t, row[5]), parseFloat(t, row[6])
		if sp < prev {
			t.Errorf("counted speedup decreased at %s workers: %.2f after %.2f", row[0], sp, prev)
		}
		prev = sp
		// One worker is balanced by definition; popcount's binomial skew
		// plus the trace's elephants stay inside 1.6x of the mean load.
		if lo, hi := 1.0, 1.6; (i == 0 && imb != 1) || imb < lo || imb > hi {
			t.Errorf("imbalance %.2f at %s workers outside [%.1f, %.1f]", imb, row[0], lo, hi)
		}
	}
	if prev < 1.5 {
		t.Errorf("counted 4-worker speedup %.2f < 1.5x", prev)
	}
}

func TestFig9bShapeLatencyFallsWithRate(t *testing.T) {
	rep, err := Fig9bDetectionLatency(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for i, row := range rep.Rows {
		if strings.HasPrefix(row[3], "0/") {
			t.Fatalf("rate %s kpps: no attack detected", row[0])
		}
		lat := parseFloat(t, row[1])
		if i == 0 {
			first = lat
		}
		last = lat
		deleg := parseFloat(t, row[2])
		if lat >= deleg {
			t.Errorf("rate %s: saturation latency %.3f not below delegation %.3f",
				row[0], lat, deleg)
		}
	}
	if last >= first {
		t.Errorf("latency did not fall with rate: %.3f -> %.3f ms", first, last)
	}
	if first > 15 {
		t.Errorf("10 kpps latency %.3f ms far above the paper's ~10 ms", first)
	}
}

func TestFig10ShapeErrorsSmall(t *testing.T) {
	rep, err := Fig10PacketAccuracy(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 memory settings", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		for _, cell := range row[2:] {
			if cell == "-" {
				continue
			}
			if e := parsePct(t, cell); e > 0.10 {
				t.Errorf("mem %s: bucket error %.3f above 10%%", row[0], e)
			}
		}
	}
	// Top-100 recall note must report ≥90%.
	for _, n := range rep.Notes {
		if strings.Contains(n, "Top-100 recall") {
			fields := strings.Fields(n)
			if r := parsePct(t, fields[len(fields)-1]); r < 0.9 {
				t.Errorf("top-100 recall %.2f < 90%%", r)
			}
		}
	}
}

func TestFig11ShapeErrorsSmall(t *testing.T) {
	rep, err := Fig11ByteAccuracy(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		for _, cell := range row[2:] {
			if cell == "-" {
				continue
			}
			if e := parsePct(t, cell); e > 0.12 {
				t.Errorf("mem %s: byte bucket error %.3f above 12%%", row[0], e)
			}
		}
	}
}

func TestFig12ShapeBoundedSystem(t *testing.T) {
	rep, err := Fig12Monitoring(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no time windows")
	}
	var foundUtil, foundReg bool
	for _, n := range rep.Notes {
		if strings.Contains(n, "CPU utilization") {
			foundUtil = true
		}
		if strings.Contains(n, "regulation over the whole window") {
			foundReg = true
		}
	}
	if !foundUtil || !foundReg {
		t.Error("missing utilization or regulation notes")
	}
	// Offered 40 % of its capacity, measured burst by burst: the worker
	// must read as partly idle, ~0.4. The time it spends asleep in the
	// paced source is not busy time; counted as busy, it would read ~1.0.
	// The pacing follows the worker's own speed, so a change in the host's
	// load during the run moves the sleeps with it, not the ratio.
	if u := rep.Metrics["utilization"]; u <= 0.2 || u >= 0.7 {
		t.Errorf("worker utilisation %.2f at 40%% offered load, want inside (0.2, 0.7)", u)
	}
}

func TestFig13ShapeErrorShrinksWithSize(t *testing.T) {
	rep, err := Fig13WildAccuracy(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 pkt + 3 byte buckets)", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[3] == "-" {
			continue
		}
		if e := parsePct(t, row[3]); e > 0.12 {
			t.Errorf("%s %s: std err %.3f above 12%%", row[0], row[1], e)
		}
	}
}

func TestFig14ShapeLowRates(t *testing.T) {
	rep, err := Fig14HeavyHitterRates(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		fpr := parsePct(t, row[3])
		fnr := parsePct(t, row[4])
		if fpr > 0.01 {
			t.Errorf("%s %s: FPR %.4f above 1%%", row[0], row[1], fpr)
		}
		if fnr > 0.10 {
			t.Errorf("%s %s: FNR %.4f above 10%%", row[0], row[1], fnr)
		}
	}
}

func TestCSMComparisonShape(t *testing.T) {
	rep, err := CSMComparison(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	imTop1000 := parsePct(t, rep.Rows[0][3])
	csmTop1000 := parsePct(t, rep.Rows[1][3])
	if imTop1000 >= csmTop1000 {
		t.Errorf("InstaMeasure top-1000 err %.3f not below CSM's %.3f", imTop1000, csmTop1000)
	}
}

// TestByIDAndAll checks the one table All ranges over and ByID looks up,
// and holds the docs to it: every experiment the docs name exists, and
// every experiment has an EXPERIMENTS.md row.
func TestByIDAndAll(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		for _, name := range []string{e.ID, e.Alias} {
			if name == "" {
				continue
			}
			if seen[name] {
				t.Errorf("%q names two experiments", name)
			}
			seen[name] = true
			if got, ok := lookup(strings.ToUpper(name)); !ok || got.ID != e.ID {
				t.Errorf("lookup(%q) = %q, %v; want %q", name, got.ID, ok, e.ID)
			}
		}
	}
	for _, id := range []string{"nonsense", "deleg", "oracle"} {
		if _, err := ByID(id, tinyScale); err == nil {
			t.Errorf("ByID(%q) must fail", id)
		}
	}
	if rep, err := ByID("8a", tinyScale); err != nil || rep.ID != "Fig.8a" {
		t.Errorf("ByID(8a) = %v, %v; want the Fig.8a report", rep, err)
	}

	rowIDs := map[string][]string{}
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md"} {
		text := readDoc(t, doc)
		if doc == "DESIGN.md" {
			// Its experiment tables are §4's; other sections tabulate
			// other things.
			text = section(t, text, "## 4. Per-experiment index", "## 5.")
		}
		rowIDs[doc] = tableRowIDs(text)
		for _, id := range rowIDs[doc] {
			if _, ok := lookup(id); !ok {
				t.Errorf("%s has a row for experiment %q, which does not exist", doc, id)
			}
		}
	}
	fig := regexp.MustCompile("instabench -fig ([0-9A-Za-z]+)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for _, m := range fig.FindAllStringSubmatch(readDoc(t, doc), -1) {
			if _, ok := lookup(m[1]); !ok {
				t.Errorf("%s runs %q, which is no experiment", doc, m[0])
			}
		}
	}
	for _, e := range Experiments {
		if !slices.Contains(rowIDs["EXPERIMENTS.md"], e.ID) {
			t.Errorf("experiment %q has no EXPERIMENTS.md row", e.ID)
		}
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func section(t *testing.T, text, from, to string) string {
	t.Helper()
	_, rest, ok := strings.Cut(text, from)
	if !ok {
		t.Fatalf("no %q section", from)
	}
	body, _, _ := strings.Cut(rest, to)
	return body
}

// tableRowIDs returns the experiment ids that the first cells of text's
// markdown table rows name: "Fig. 8a" is fig8a, and a backticked word is
// an id as it stands ("§V.C (`csm`)", "Abl.evict (`evict`)").
func tableRowIDs(text string) []string {
	figCell := regexp.MustCompile(`^Fig\. (\w+)$`)
	ticked := regexp.MustCompile("`([0-9a-z]+)`")
	var ids []string
	for _, line := range strings.Split(text, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		first := strings.TrimSpace(cells[1])
		if m := figCell.FindStringSubmatch(first); m != nil {
			ids = append(ids, "fig"+strings.ToLower(m[1]))
		}
		for _, m := range ticked.FindAllStringSubmatch(first, -1) {
			ids = append(ids, m[1])
		}
	}
	return ids
}

func TestReportPrint(t *testing.T) {
	rep := &Report{
		ID:     "T",
		Title:  "test",
		Header: []string{"a", "bb"},
	}
	rep.AddRow("1", "2")
	rep.AddNote("hello %d", 5)
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== T: test ==", "a", "bb", "hello 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed report missing %q:\n%s", want, out)
		}
	}
}

func TestIBLTComparisonShape(t *testing.T) {
	rep, err := IBLTComparison(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 load points", len(rep.Rows))
	}
	// Below capacity the IBLT must decode completely; at 2x it must not.
	if rep.Rows[0][2] != "true" {
		t.Error("IBLT incomplete below capacity")
	}
	if rep.Rows[3][2] != "false" {
		t.Error("IBLT claimed completeness at 2x overload")
	}
	// WSAF recall must stay high at every load point.
	for _, row := range rep.Rows {
		if r := parsePct(t, row[4]); r < 0.9 {
			t.Errorf("WSAF top-100 recall %.2f < 90%% at load %s", r, row[0])
		}
	}
}

func TestAblationEvictionShape(t *testing.T) {
	rep, err := AblationEviction(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	sc := parsePct(t, rep.Rows[0][1])
	ef := parsePct(t, rep.Rows[1][1])
	if sc < ef-0.05 {
		t.Errorf("second-chance recall %.2f well below evict-first %.2f", sc, ef)
	}
}

func TestAblationProbingShape(t *testing.T) {
	rep, err := AblationProbing(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if steps := parseFloat(t, row[1]); steps < 1 || steps > 16 {
			t.Errorf("%s probe steps/op = %v out of [1,16]", row[0], steps)
		}
	}
}

func TestAblationShardingShape(t *testing.T) {
	rep, err := AblationShardingQuality(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	pop := parsePct(t, rep.Rows[0][2])
	rr := parsePct(t, rep.Rows[1][2])
	if pop > rr {
		t.Errorf("popcount top-100 error %.3f above spray %.3f — affinity should win", pop, rr)
	}
	again, err := AblationShardingQuality(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Rows, rep.Rows) {
		t.Errorf("two runs at one seed differ:\n%v\n%v", rep.Rows, again.Rows)
	}
}

func TestLayersSweepShape(t *testing.T) {
	rep, err := LayersSweep(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 depths", len(rep.Rows))
	}
	prev := 1.0
	for _, row := range rep.Rows {
		rate := parsePct(t, row[2])
		if rate >= prev {
			t.Errorf("layers=%s: rate %.5f not below previous %.5f", row[0], rate, prev)
		}
		prev = rate
	}
	// 3+ layers must fit even the TCAM-grade margin.
	if rep.Rows[1][4] != "true" || rep.Rows[2][4] != "true" {
		t.Error("deep chains must fit the TCAM-grade margin")
	}
}

func TestHotCacheAccuracyShape(t *testing.T) {
	rep, err := HotCacheAccuracy(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(hotCacheSweep) {
		t.Fatalf("rows = %d, want %d cache points", len(rep.Rows), len(hotCacheSweep))
	}
	// The acceptance criterion for the cache tier: top-1k heavy-hitter
	// error with a 4k cache must undercut the uncached sketch-only error,
	// because promoted flows count exactly from promotion onward.
	uncached := parsePct(t, rep.Rows[0][5])
	cached := parsePct(t, rep.Rows[2][5])
	if cached >= uncached {
		t.Errorf("4k-cache top-1k err %.4f not below uncached %.4f", cached, uncached)
	}
	// A skewed workload must produce a substantial hit rate at 4k entries.
	if hr := parsePct(t, rep.Rows[2][1]); hr < 0.2 {
		t.Errorf("4k-cache hit rate %.3f implausibly low on a Zipf trace", hr)
	}
	if rep.Metrics["hit_rate"] <= 0 {
		t.Error("hit_rate metric not set")
	}
}
