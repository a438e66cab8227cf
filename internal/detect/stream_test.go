package detect

import (
	"errors"
	"math"
	"net/netip"
	"testing"

	"instameasure/internal/export"
	"instameasure/internal/hll"
	"instameasure/internal/packet"
	"instameasure/internal/trace"
)

// feedPackets drives a detector with one record per packet (dPkts=1),
// the way the aggregator feeds per-arrival deltas, and returns all
// alerts raised.
func feedPackets(t *testing.T, d *StreamDetector, tr *trace.Trace, site string) []Alert {
	t.Helper()
	var alerts []Alert
	for i := range tr.Packets {
		p := &tr.Packets[i]
		rec := export.Record{Key: p.Key, Pkts: 1, Bytes: float64(p.Len), LastUpdate: p.TS}
		alerts = d.Observe(site, &rec, 1, 1, alerts)
	}
	return alerts
}

func TestStreamKindString(t *testing.T) {
	cases := map[StreamKind]string{
		KindDDoSVictim:    "ddos_victim",
		KindSuperSpreader: "super_spreader",
		KindPortScan:      "port_scan",
		StreamKind(99):    "stream_kind_99",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestNewStreamDetectorValidation(t *testing.T) {
	if _, err := NewStreamDetector(StreamConfig{Kind: StreamKind(0), Threshold: 10}); !errors.Is(err, ErrStreamKind) {
		t.Errorf("kind 0: err = %v, want ErrStreamKind", err)
	}
	if _, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim}); !errors.Is(err, ErrThreshold) {
		t.Errorf("zero threshold: err = %v, want ErrThreshold", err)
	}
	if _, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim, Threshold: 10, ClearRatio: 1.5}); err == nil {
		t.Error("ClearRatio 1.5 accepted")
	}
	if _, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim, Threshold: 10, MaxKeys: -1}); err == nil {
		t.Error("negative MaxKeys accepted")
	}
	if _, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim, Threshold: 10, Precision: 3}); err == nil {
		t.Error("precision 3 accepted")
	}
	d, err := NewDDoSVictimDetector(100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindDDoSVictim {
		t.Errorf("Kind() = %v", d.Kind())
	}
}

// TestDDoSVictimOracle scores the detector against GenerateSpoofedDDoS's
// exact ground truth: the victim must be named exactly once (precision
// and recall both 1) and a benign zipf workload must stay silent.
func TestDDoSVictimOracle(t *testing.T) {
	const bots = 2000
	atk, truth, err := trace.GenerateSpoofedDDoS(trace.SpoofedDDoSConfig{Sources: bots, PacketsPerSource: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDDoSVictimDetector(bots / 2)
	if err != nil {
		t.Fatal(err)
	}
	alerts := feedPackets(t, d, atk, "edge-1")

	tp, fp := 0, 0
	for _, al := range alerts {
		if al.Host == truth.Host.String() {
			tp++
		} else {
			fp++
		}
	}
	if tp != 1 {
		t.Fatalf("victim alerted %d times, want exactly 1 (hysteresis); alerts: %+v", tp, alerts)
	}
	if fp != 0 {
		t.Fatalf("%d false-positive alerts: %+v", fp, alerts)
	}
	al := alerts[0]
	if al.Kind != "ddos_victim" || al.Threshold != bots/2 {
		t.Errorf("alert = %+v", al)
	}
	// HLL at precision 8 has ~6.5% standard error; the estimate at the
	// moment of crossing is at least the threshold and cannot wildly
	// exceed the true cardinality.
	if al.Estimate < bots/2 || al.Estimate > bots*1.3 {
		t.Errorf("estimate %g implausible for %d true sources", al.Estimate, bots)
	}
	if len(al.Sites) != 1 || al.Sites[0] != "edge-1" {
		t.Errorf("sites = %v, want [edge-1]", al.Sites)
	}

	// Benign background: hundreds of flows, but no destination gathers
	// anywhere near threshold distinct sources.
	bg, err := trace.GenerateZipf(trace.ZipfConfig{Flows: 2000, TotalPackets: 40000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := NewDDoSVictimDetector(bots / 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := feedPackets(t, quiet, bg, "edge-1"); len(got) != 0 {
		t.Fatalf("benign workload raised %d alerts: %+v", len(got), got)
	}
}

func TestSuperSpreaderAndPortScanOracle(t *testing.T) {
	atk, truth, err := trace.GenerateSuperSpreader(trace.SuperSpreaderConfig{Targets: 1500, PortsPerTarget: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := NewStreamDetector(StreamConfig{Kind: KindSuperSpreader, Threshold: 700})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewStreamDetector(StreamConfig{Kind: KindPortScan, Threshold: 700})
	if err != nil {
		t.Fatal(err)
	}
	sAlerts := feedPackets(t, spread, atk, "edge-2")
	pAlerts := feedPackets(t, scan, atk, "edge-2")

	for name, alerts := range map[string][]Alert{"super_spreader": sAlerts, "port_scan": pAlerts} {
		if len(alerts) != 1 {
			t.Fatalf("%s: %d alerts, want 1: %+v", name, len(alerts), alerts)
		}
		if alerts[0].Host != truth.Host.String() {
			t.Errorf("%s named %s, want %s", name, alerts[0].Host, truth.Host)
		}
		if alerts[0].Kind != name {
			t.Errorf("%s alert kind = %q", name, alerts[0].Kind)
		}
	}
}

// TestHysteresisEpisodes drives the full latch lifecycle: a sustained
// attack fires once across window rotations, a pane that closes inside
// the clear band re-arms the group, and a fresh episode fires again.
func TestHysteresisEpisodes(t *testing.T) {
	const bots = 1200
	d, err := NewDDoSVictimDetector(bots / 2)
	if err != nil {
		t.Fatal(err)
	}
	atk, truth, err := trace.GenerateSpoofedDDoS(trace.SpoofedDDoSConfig{Sources: bots, PacketsPerSource: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}

	// Episode 1, pane 1: fires once.
	if got := feedPackets(t, d, atk, "s"); len(got) != 1 {
		t.Fatalf("pane 1: %d alerts, want 1", len(got))
	}
	// Pane 2: attack sustained — the estimate at rotation is above the
	// clear band, so the latch holds and the pane stays silent.
	d.Rotate()
	if got := feedPackets(t, d, atk, "s"); len(got) != 0 {
		t.Fatalf("sustained pane re-fired: %+v", got)
	}
	// Pane 3: the attack quiets to a trickle (one source), the pane
	// closes at estimate ~1 <= ClearRatio*Threshold, re-arming the group.
	d.Rotate()
	trickle := export.Record{Key: atk.Packets[0].Key, Pkts: 1, LastUpdate: 1}
	if got := d.Observe("s", &trickle, 1, 3, nil); len(got) != 0 {
		t.Fatalf("trickle fired: %+v", got)
	}
	d.Rotate()
	// Episode 2: the flood resumes and must fire again.
	got := feedPackets(t, d, atk, "s")
	if len(got) != 1 || got[0].Host != truth.Host.String() {
		t.Fatalf("resumed episode: alerts = %+v, want 1 for %s", got, truth.Host)
	}
	if st := d.Stats(); st.Fired != 2 {
		t.Errorf("Fired = %d, want 2", st.Fired)
	}
}

// TestStreamMaxKeysDrops pins the refusal half of full-table admission:
// when every sampled group is latched, the newcomer is refused and counted,
// and no latched group is displaced.
func TestStreamMaxKeysDrops(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim, Threshold: 2, MaxKeys: 2})
	if err != nil {
		t.Fatal(err)
	}
	var alerts []Alert
	for dst := uint32(100); dst < 102; dst++ {
		for src := uint32(1); src <= 3; src++ {
			p := pkt(src, dst, 80, 1)
			alerts = d.ObservePacket(&p, alerts)
		}
	}
	if len(alerts) != 2 {
		t.Fatalf("%d alerts, want both groups latched", len(alerts))
	}
	for i := 0; i < 2; i++ {
		p := pkt(1, uint32(200+i), 80, 2)
		alerts = d.ObservePacket(&p, alerts)
	}
	st := d.Stats()
	if st.Keys != 2 || st.Evictions != 0 {
		t.Errorf("Keys = %d, Evictions = %d; want 2 latched groups kept", st.Keys, st.Evictions)
	}
	if st.Drops != 2 {
		t.Errorf("Drops = %d, want 2 refused newcomers", st.Drops)
	}
	if got := d.Estimate(netip.MustParseAddr("0.0.0.200")); got != 0 {
		t.Errorf("refused group is tracked (estimate %g)", got)
	}
}

// TestStreamLateVictimAfterFullTable: background groups fill the table
// before the attack starts; the victim's group must still be admitted (by
// displacing an unlatched background group) and alert exactly once.
func TestStreamLateVictimAfterFullTable(t *testing.T) {
	const maxKeys, bots = 4096, 2000
	d, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim, Threshold: bots / 2})
	if err != nil {
		t.Fatal(err)
	}
	var alerts []Alert
	for dst := uint32(0); dst < maxKeys; dst++ {
		for src := uint32(1); src <= 2; src++ {
			p := pkt(src, 0x0A000000+dst, 443, int64(dst))
			alerts = d.ObservePacket(&p, alerts)
		}
	}
	if st := d.Stats(); st.Keys != maxKeys || len(alerts) != 0 {
		t.Fatalf("background: Keys = %d, %d alerts", st.Keys, len(alerts))
	}
	const victim = 0xCB007101
	for i := uint32(0); i < bots; i++ {
		p := pkt(0x20000000+i, victim, 80, int64(maxKeys+i))
		alerts = d.ObservePacket(&p, alerts)
	}
	if len(alerts) != 1 || alerts[0].Host != "203.0.113.1" {
		t.Fatalf("alerts = %+v, want exactly one for 203.0.113.1", alerts)
	}
	if st := d.Stats(); st.Keys != maxKeys || st.Drops != 0 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want one displacement and no drops", st)
	}
}

// TestStreamMaxKeysBound: churn far above MaxKeys never grows the table;
// every admission past the cap displaces an unlatched group.
func TestStreamMaxKeysBound(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{Kind: KindSuperSpreader, Threshold: 1000, MaxKeys: 8})
	if err != nil {
		t.Fatal(err)
	}
	for s := uint32(1); s <= 100; s++ {
		for j := uint32(1); j <= 3; j++ {
			p := pkt(s, j, 80, int64(s))
			d.ObservePacket(&p, nil)
		}
	}
	if st := d.Stats(); st.Keys != 8 || st.Evictions != 92 || st.Drops != 0 {
		t.Errorf("stats = %+v, want 8 keys, 92 displacements, no drops", st)
	}
}

// TestStreamLatchedSurvivesAdmission: a latched group is never displaced
// by admission churn, so it keeps its estimate and does not re-alert.
func TestStreamLatchedSurvivesAdmission(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{Kind: KindSuperSpreader, Threshold: 20, MaxKeys: 4, Precision: 10})
	if err != nil {
		t.Fatal(err)
	}
	const scanner = 77
	var alerts []Alert
	for i := uint32(0); i < 100; i++ {
		p := pkt(scanner, i+1, 80, int64(i))
		alerts = d.ObservePacket(&p, alerts)
	}
	for s := uint32(0); s < 50; s++ {
		p := pkt(1000+s, 1, 80, int64(200+s))
		alerts = d.ObservePacket(&p, alerts)
	}
	for i := uint32(100); i < 200; i++ {
		p := pkt(scanner, i+1, 80, int64(300+i))
		alerts = d.ObservePacket(&p, alerts)
	}
	if len(alerts) != 1 || alerts[0].Host != "0.0.0.77" {
		t.Fatalf("alerts = %+v, want exactly one for the scanner", alerts)
	}
	if est := d.Estimate(netip.MustParseAddr("0.0.0.77")); math.Abs(est-200)/200 > 0.15 {
		t.Errorf("scanner estimate %.0f after churn, want ≈200", est)
	}
	if st := d.Stats(); st.Evictions == 0 {
		t.Error("churn displaced nothing")
	}
}

// TestStreamNarrowGroupDoesNotFlag: a chatty source with few distinct
// destinations never reaches a distinct-count threshold.
func TestStreamNarrowGroupDoesNotFlag(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{Kind: KindSuperSpreader, Threshold: 50, Precision: 10})
	if err != nil {
		t.Fatal(err)
	}
	var alerts []Alert
	for i := 0; i < 10_000; i++ {
		p := pkt(1, uint32(i%5)+1, 443, int64(i))
		alerts = d.ObservePacket(&p, alerts)
	}
	if len(alerts) != 0 {
		t.Errorf("narrow source flagged: %+v", alerts)
	}
	if est := d.Estimate(netip.MustParseAddr("0.0.0.1")); est > 10 {
		t.Errorf("narrow source estimate %.0f, want ≈5", est)
	}
}

// TestStreamScansOnlyOnRise: a group that is busy but not wide — 40
// distinct sources, each seen 1 000 times, far past the estimate floor —
// scans its registers at most once per register rise, not once per record.
func TestStreamScansOnlyOnRise(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim, Threshold: 300})
	if err != nil {
		t.Fatal(err)
	}
	shadow := hll.MustNew(d.cfg.Precision)
	rises := 0
	var alerts []Alert
	for round := 0; round < 1000; round++ {
		for src := uint32(1); src <= 40; src++ {
			p := pkt(src, 0xC0A80001, 80, int64(round+1))
			if shadow.Add(hashAddr(&p.Key.SrcIP, false, saltDDoS)) {
				rises++
			}
			alerts = d.ObservePacket(&p, alerts)
		}
	}
	if len(alerts) != 0 {
		t.Fatalf("40 sources flagged at threshold 300: %+v", alerts)
	}
	if rises == 0 || rises > 40 {
		t.Fatalf("%d register rises from 40 distinct sources", rises)
	}
	if d.scans > uint64(rises) {
		t.Errorf("%d register scans for %d register rises over 40 000 records", d.scans, rises)
	}
}

// TestStreamFirstFlagNearCrossing: the alert's TS is the packet that took
// the estimate over the threshold, not the end of the stream.
func TestStreamFirstFlagNearCrossing(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{Kind: KindSuperSpreader, Threshold: 100, Precision: 10})
	if err != nil {
		t.Fatal(err)
	}
	const scanner = 0x0A000001
	var alerts []Alert
	ts := int64(1)
	for i := uint32(0); i < 500; i++ {
		p := pkt(scanner, 0xC0000000+i, 80, ts)
		alerts = d.ObservePacket(&p, alerts)
		ts++
	}
	for s := uint32(0); s < 50; s++ {
		for j := uint32(1); j <= 3; j++ {
			p := pkt(0x0B000000+s, j, 80, ts)
			alerts = d.ObservePacket(&p, alerts)
			ts++
		}
	}
	if len(alerts) != 1 || alerts[0].Host != "10.0.0.1" {
		t.Fatalf("alerts = %+v, want exactly one for 10.0.0.1", alerts)
	}
	if at := alerts[0].TS; at < 50 || at > 200 {
		t.Errorf("flagged at TS %d, want near the 100th probe", at)
	}
	if benign := d.Estimate(netip.MustParseAddr("11.0.0.0")); benign > 10 {
		t.Errorf("benign source estimate %.0f, want ≈3", benign)
	}
}

// TestStreamEstimatePrecision10: at the packet-fed detectors' precision the
// estimate lands within 15 % of the true distinct count.
func TestStreamEstimatePrecision10(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim, Threshold: 200, Precision: 10})
	if err != nil {
		t.Fatal(err)
	}
	const victim = 0x08080808
	var alerts []Alert
	for i := uint32(0); i < 1000; i++ {
		p := pkt(0x10000000+i, victim, 80, int64(i))
		alerts = d.ObservePacket(&p, alerts)
	}
	for i := uint32(0); i < 100; i++ {
		p := pkt(i%3+1, 0x09090909, 443, int64(i))
		alerts = d.ObservePacket(&p, alerts)
	}
	if len(alerts) != 1 || alerts[0].Host != "8.8.8.8" {
		t.Fatalf("alerts = %+v, want exactly one for 8.8.8.8", alerts)
	}
	if len(alerts[0].Sites) != 0 {
		t.Errorf("packet-fed alert carries sites %v", alerts[0].Sites)
	}
	if est := d.Estimate(netip.MustParseAddr("8.8.8.8")); math.Abs(est-1000)/1000 > 0.15 {
		t.Errorf("victim estimate %.0f, want ≈1000", est)
	}
}

// TestStreamRejectsNonFinite: a NaN or infinite threshold, or a NaN clear
// ratio, would build a detector that never fires (and scans registers on
// every record); construction refuses them.
func TestStreamRejectsNonFinite(t *testing.T) {
	for _, cfg := range []StreamConfig{
		{Kind: KindDDoSVictim, Threshold: math.NaN()},
		{Kind: KindDDoSVictim, Threshold: math.Inf(1)},
		{Kind: KindDDoSVictim, Threshold: math.Inf(-1)},
		{Kind: KindDDoSVictim, Threshold: 10, ClearRatio: math.NaN()},
		{Kind: KindDDoSVictim, Threshold: 10, ClearRatio: math.Inf(1)},
	} {
		if _, err := NewStreamDetector(cfg); !errors.Is(err, ErrThreshold) {
			t.Errorf("threshold %g, clear ratio %g: err = %v, want ErrThreshold", cfg.Threshold, cfg.ClearRatio, err)
		}
	}
}

func pkt(src, dst uint32, dstPort uint16, ts int64) packet.Packet {
	return packet.Packet{Key: packet.V4Key(src, dst, 40_000, dstPort, packet.ProtoTCP), Len: 100, TS: ts}
}

func TestStreamIdleEviction(t *testing.T) {
	d, err := NewDDoSVictimDetector(10)
	if err != nil {
		t.Fatal(err)
	}
	rec := export.Record{Key: packet.V4Key(1, 2, 1, 80, packet.ProtoTCP), Pkts: 1}
	d.Observe("s", &rec, 1, 1, nil)
	// Pane that observed the group closes: survives.
	d.Rotate()
	if st := d.Stats(); st.Keys != 1 || st.Evictions != 0 {
		t.Fatalf("after first rotate: %+v", st)
	}
	// A full pane with no observation: evicted.
	d.Rotate()
	st := d.Stats()
	if st.Keys != 0 {
		t.Errorf("idle group survived: Keys = %d", st.Keys)
	}
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
}

// TestCumulativeReobservationIdempotent pins the HLL property the
// aggregator leans on: the same source re-observed in one pane does not
// inflate the distinct estimate.
func TestCumulativeReobservationIdempotent(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim, Threshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rec := export.Record{Key: packet.V4Key(7, 2, 1, 80, packet.ProtoTCP), Pkts: 1}
	var alerts []Alert
	for i := 0; i < 5000; i++ {
		alerts = d.Observe("s", &rec, 1, 1, alerts)
	}
	if len(alerts) != 0 {
		t.Fatalf("one source re-observed 5000 times fired %d alerts", len(alerts))
	}
}

func TestAlertSiteAttributionBounded(t *testing.T) {
	d, err := NewStreamDetector(StreamConfig{Kind: KindDDoSVictim, Threshold: 3, ClearRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	var alerts []Alert
	for i := 0; i < maxAlertSites+4; i++ {
		rec := export.Record{Key: packet.V4Key(uint32(50+i), 2, 1, 80, packet.ProtoTCP), Pkts: 1}
		alerts = d.Observe(string(rune('a'+i)), &rec, 1, 1, alerts)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if len(alerts[0].Sites) > maxAlertSites {
		t.Errorf("alert carries %d sites, cap is %d", len(alerts[0].Sites), maxAlertSites)
	}
}
