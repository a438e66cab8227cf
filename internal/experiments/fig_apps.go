package experiments

import (
	"fmt"
	"net/netip"

	"instameasure/internal/apps"
	"instameasure/internal/core"
	"instameasure/internal/detect"
	"instameasure/internal/flowhash"
	"instameasure/internal/packet"
	"instameasure/internal/trace"
)

// AppsDetection exercises the WSAF-consumer applications the paper names
// in Section II — SuperSpreader detection, DDoS victim detection, and
// flow-size entropy — on a workload with planted anomalies, and scores
// detection precision.
func AppsDetection(s Scale) (*Report, error) {
	background, err := caidaTrace(s)
	if err != nil {
		return nil, err
	}

	// Plant three scanners with distinct spreads and one DDoS victim.
	rng := flowhash.NewRand(s.Seed ^ 0xA995)
	scanners := []struct {
		src    uint32
		spread int
	}{
		{0xC6336401, 2000},
		{0xC6336402, 800},
		{0xC6336403, 100}, // below threshold — must NOT be flagged
	}
	var planted []packet.Packet
	ts := int64(0)
	for _, sc := range scanners {
		for i := 0; i < sc.spread; i++ {
			planted = append(planted, packet.Packet{
				Key: packet.V4Key(sc.src, 0x0A000000+uint32(i),
					55555, uint16(rng.Intn(1024))+1, packet.ProtoTCP),
				Len: 60,
				TS:  ts,
			})
			ts += 50_000
		}
	}
	const victim = 0xCB007101
	const bots = 3000
	for i := 0; i < bots*3; i++ {
		planted = append(planted, packet.Packet{
			Key: packet.V4Key(0x20000000+uint32(i%bots), victim,
				uint16(rng.Intn(60000))+1, 80, packet.ProtoUDP),
			Len: 1200,
			TS:  ts,
		})
		ts += 20_000
	}
	tr := trace.Merge(background, trace.NewTrace(planted))

	// Precision 10, as the public packet-fed detectors use.
	spreader, err := detect.NewStreamDetector(detect.StreamConfig{Kind: detect.KindSuperSpreader, Threshold: 500, Precision: 10})
	if err != nil {
		return nil, err
	}
	ddos, err := detect.NewStreamDetector(detect.StreamConfig{Kind: detect.KindDDoSVictim, Threshold: 1000, Precision: 10})
	if err != nil {
		return nil, err
	}
	eng, err := core.New(core.Config{SketchMemoryBytes: 32 << 10, WSAFEntries: 1 << 18, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	var ssAlerts, ddosAlerts []detect.Alert
	for i := range tr.Packets {
		p := &tr.Packets[i]
		eng.Process(*p)
		ssAlerts = spreader.ObservePacket(p, ssAlerts)
		ddosAlerts = ddos.ObservePacket(p, ddosAlerts)
	}

	rep := &Report{
		ID:     "Ext.apps",
		Title:  "WSAF applications: SuperSpreader, DDoS victim, entropy",
		Header: []string{"detector", "flagged", "expected", "largest estimate"},
	}
	rep.AddRow("superspreader (>=500 dsts)",
		fmt.Sprintf("%d", len(ssAlerts)), "2", fmt.Sprintf("%.0f", largestEstimate(spreader, ssAlerts)))
	rep.AddRow("ddos victim (>=1000 srcs)",
		fmt.Sprintf("%d", len(ddosAlerts)), "1", fmt.Sprintf("%.0f", largestEstimate(ddos, ddosAlerts)))

	entropy := apps.NormalizedFlowSizeEntropy(eng.Snapshot())
	rep.AddNote("planted: scanners with 2000/800/100 distinct dsts (100 must stay unflagged), %d-bot flood", bots)
	rep.AddNote("normalized WSAF flow-size entropy: %.3f (concentration pushes this down)", entropy)
	return rep, nil
}

// largestEstimate is the largest current estimate among alerted groups (0
// with none). The detectors never rotate here, so each group alerts once.
func largestEstimate(d *detect.StreamDetector, alerts []detect.Alert) float64 {
	largest := 0.0
	for _, al := range alerts {
		largest = max(largest, d.Estimate(netip.MustParseAddr(al.Host)))
	}
	return largest
}

// AnomalyOnset demonstrates streaming anomaly detection: a DDoS flood is
// injected partway through a diurnal trace, and an EWMA change-point
// detector watching per-window source dispersion (distinct source
// addresses) must alarm promptly after onset and stay silent before it —
// a 5000-bot flood multiplies the source population no matter how the
// diurnal load swings.
func AnomalyOnset(s Scale) (*Report, error) {
	background, err := campusTrace(s)
	if err != nil {
		return nil, err
	}

	// Flood: many sources converging on one destination, starting at 60%
	// of the trace and lasting 20% of it, at ~4x the mean background rate
	// within its window.
	dur := background.Duration()
	start := background.Packets[0].TS + dur*6/10
	floodLen := dur / 5
	floodPkts := len(background.Packets) * 4 / 5 / 5
	const victim = 0xCB007105
	flood := make([]packet.Packet, 0, floodPkts)
	for i := 0; i < floodPkts; i++ {
		flood = append(flood, packet.Packet{
			Key: packet.V4Key(0x30000000+uint32(i%5000), victim,
				uint16(i%60000)+1, 80, packet.ProtoUDP),
			Len: 1200,
			TS:  start + int64(float64(i)/float64(floodPkts)*float64(floodLen)),
		})
	}
	tr := trace.Merge(background, trace.NewTrace(flood))

	det, err := apps.NewChangeDetector(apps.ChangeConfig{})
	if err != nil {
		return nil, err
	}

	const windows = 100
	width := tr.Duration()/windows + 1
	t0 := tr.Packets[0].TS
	onsetWindow := int((start - t0) / width)

	sources := map[uint32]struct{}{}
	curWindow := -1
	alarmWindow := -1
	falseAlarms := 0
	flush := func(w int) {
		if w < 0 || len(sources) == 0 {
			return
		}
		if _, alarm := det.Observe(float64(len(sources))); alarm {
			if w >= onsetWindow {
				if alarmWindow < 0 {
					alarmWindow = w
				}
			} else {
				falseAlarms++
			}
		}
	}
	for i := range tr.Packets {
		p := &tr.Packets[i]
		w := int((p.TS - t0) / width)
		if w != curWindow {
			flush(curWindow)
			sources = map[uint32]struct{}{}
			curWindow = w
		}
		sources[p.Key.SrcIPv4()] = struct{}{}
	}
	flush(curWindow)

	rep := &Report{
		ID:     "Ext.onset",
		Title:  "DDoS onset detection via source-dispersion change point",
		Header: []string{"onset window", "alarm window", "delay (windows)", "false alarms"},
	}
	alarmCell, delayCell := "-", "-"
	if alarmWindow >= 0 {
		alarmCell = fmt.Sprintf("%d", alarmWindow)
		delayCell = fmt.Sprintf("%d", alarmWindow-onsetWindow)
	}
	rep.AddRow(fmt.Sprintf("%d", onsetWindow), alarmCell, delayCell,
		fmt.Sprintf("%d", falseAlarms))
	rep.AddNote("flood: 5000 sources -> 1 destination over windows %d-%d of %d",
		onsetWindow, int((start+floodLen-t0)/width), windows)
	rep.AddNote("signal: distinct source addresses per window; EWMA alpha 0.1, 4 mean deviations, 10-window warmup")
	return rep, nil
}
