// Package detect implements the paper's key application: instant
// heavy-hitter detection on top of the measurement engine, plus the
// machinery to evaluate it — ground-truth threshold crossings, detection
// latency under the three decoding disciplines the paper compares
// (packet-arrival-based, saturation-based, delegation-based), and Top-K
// extraction with recall scoring.
package detect

import (
	"errors"
	"fmt"
	"maps"

	"instameasure/internal/core"
	"instameasure/internal/packet"
	"instameasure/internal/topk"
	"instameasure/internal/trace"
	"instameasure/internal/wsaf"
)

// ErrThreshold is returned when a detector is configured without any
// positive threshold, or with a non-finite one.
var ErrThreshold = errors.New("detect: need a positive, finite threshold")

// HeavyHitterDetector watches an Engine's passthrough events and records
// the first time each flow's accumulated count crosses a threshold — the
// paper's saturation-based decoding discipline, where detection can only
// happen when a sketch saturation delivers the flow to the WSAF.
type HeavyHitterDetector struct {
	thresholdPkts  float64
	thresholdBytes float64

	pktHits  map[packet.FlowKey]int64
	byteHits map[packet.FlowKey]int64
}

// NewHeavyHitterDetector builds a detector; at least one threshold must be
// positive (a zero threshold disables that dimension).
func NewHeavyHitterDetector(thresholdPkts, thresholdBytes float64) (*HeavyHitterDetector, error) {
	if thresholdPkts <= 0 && thresholdBytes <= 0 {
		return nil, ErrThreshold
	}
	return &HeavyHitterDetector{
		thresholdPkts:  thresholdPkts,
		thresholdBytes: thresholdBytes,
		pktHits:        make(map[packet.FlowKey]int64),
		byteHits:       make(map[packet.FlowKey]int64),
	}, nil
}

// Attach subscribes the detector to the engine's passthrough events and
// arms the engine's cache-crossing thresholds: promoted flows bypass
// per-packet pass events, so without arming, a flow promoted into the
// hot cache below a threshold would cross it invisibly.
func (d *HeavyHitterDetector) Attach(e *core.Engine) {
	e.OnPass(d.Observe)
	e.SetDetectThresholds(d.thresholdPkts, d.thresholdBytes)
}

// Observe processes one passthrough event; it is the core.Engine OnPass
// callback.
func (d *HeavyHitterDetector) Observe(ev core.PassEvent) {
	if d.thresholdPkts > 0 && ev.Pkts >= d.thresholdPkts {
		if _, seen := d.pktHits[ev.Key]; !seen {
			d.pktHits[ev.Key] = ev.TS
		}
	}
	if d.thresholdBytes > 0 && ev.Bytes >= d.thresholdBytes {
		if _, seen := d.byteHits[ev.Key]; !seen {
			d.byteHits[ev.Key] = ev.TS
		}
	}
}

// PacketHitters returns flows detected as packet heavy hitters with their
// detection timestamps.
func (d *HeavyHitterDetector) PacketHitters() map[packet.FlowKey]int64 {
	return maps.Clone(d.pktHits)
}

// ByteHitters returns flows detected as byte heavy hitters with their
// detection timestamps.
func (d *HeavyHitterDetector) ByteHitters() map[packet.FlowKey]int64 {
	return maps.Clone(d.byteHits)
}

// DetectionTS returns when key was first detected as a packet heavy
// hitter.
func (d *HeavyHitterDetector) DetectionTS(key packet.FlowKey) (int64, bool) {
	ts, ok := d.pktHits[key]
	return ts, ok
}

// ByteDetectionTS returns when key was first detected as a byte heavy
// hitter.
func (d *HeavyHitterDetector) ByteDetectionTS(key packet.FlowKey) (int64, bool) {
	ts, ok := d.byteHits[key]
	return ts, ok
}

// Crossing is a ground-truth threshold crossing: the timestamp of the
// packet that pushed the flow over the threshold. This is the
// packet-arrival-based decoding baseline — the earliest any system could
// possibly detect.
type Crossing struct {
	Key packet.FlowKey
	TS  int64
}

// TruthCrossings scans a trace and returns, for every flow whose true
// cumulative packet count reaches thresholdPkts (or byte count reaches
// thresholdBytes; either may be 0 to disable), the exact crossing time.
func TruthCrossings(tr *trace.Trace, thresholdPkts, thresholdBytes float64) ([]Crossing, error) {
	if thresholdPkts <= 0 && thresholdBytes <= 0 {
		return nil, ErrThreshold
	}
	type acc struct {
		pkts, bytes float64
		crossed     bool
	}
	running := make(map[packet.FlowKey]*acc)
	var out []Crossing
	for i := range tr.Packets {
		p := &tr.Packets[i]
		a := running[p.Key]
		if a == nil {
			a = &acc{}
			running[p.Key] = a
		}
		if a.crossed {
			continue
		}
		a.pkts++
		a.bytes += float64(p.Len)
		if (thresholdPkts > 0 && a.pkts >= thresholdPkts) ||
			(thresholdBytes > 0 && a.bytes >= thresholdBytes) {
			a.crossed = true
			out = append(out, Crossing{Key: p.Key, TS: p.TS})
		}
	}
	return out, nil
}

// LatencySample pairs one flow's ground-truth crossing with its detection
// time under some discipline; Latency = DetectTS − TruthTS.
type LatencySample struct {
	Key       packet.FlowKey
	TruthTS   int64
	DetectTS  int64
	LatencyNs int64
}

// Latencies joins ground-truth crossings with detection timestamps.
// Undetected flows are skipped; callers can compare lengths to count
// misses.
func Latencies(truth []Crossing, detected map[packet.FlowKey]int64) []LatencySample {
	out := make([]LatencySample, 0, len(truth))
	for _, c := range truth {
		dt, ok := detected[c.Key]
		if !ok {
			continue
		}
		out = append(out, LatencySample{
			Key:       c.Key,
			TruthTS:   c.TS,
			DetectTS:  dt,
			LatencyNs: dt - c.TS,
		})
	}
	return out
}

// DelegationLatencies models the remote-collector discipline the paper
// contrasts against: sketches are flushed every epochNs and decoded after
// networkDelayNs, so a crossing at t is detected at the end of its epoch
// plus the delay.
func DelegationLatencies(truth []Crossing, epochNs, networkDelayNs int64) ([]LatencySample, error) {
	if epochNs <= 0 {
		return nil, fmt.Errorf("detect: epochNs must be positive (got %d)", epochNs)
	}
	out := make([]LatencySample, 0, len(truth))
	for _, c := range truth {
		epochEnd := (c.TS/epochNs + 1) * epochNs
		dt := epochEnd + networkDelayNs
		out = append(out, LatencySample{
			Key:       c.Key,
			TruthTS:   c.TS,
			DetectTS:  dt,
			LatencyNs: dt - c.TS,
		})
	}
	return out, nil
}

// TopKKeys extracts the flow keys of the k largest WSAF entries under
// metric, largest first; equal scores keep their order in entries.
func TopKKeys(entries []wsaf.Entry, k int, metric func(*wsaf.Entry) float64) []packet.FlowKey {
	sel := topk.New[packet.FlowKey](k)
	for i := range entries {
		sel.Offer(metric(&entries[i]), &entries[i].Key)
	}
	return sel.Sorted()
}
