package instameasure

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"instameasure/internal/apps"
	"instameasure/internal/detect"
	"instameasure/internal/wsaf"
)

// SpreadConfig parameterizes the spread-based anomaly detectors
// (SuperSpreader and DDoS victim detection).
type SpreadConfig struct {
	// Threshold is the distinct-peer count that flags an endpoint; it
	// must be positive and finite.
	Threshold float64
	// Precision is the per-endpoint HyperLogLog precision (default 10:
	// 1 KB per endpoint, ~3% error).
	Precision int
	// MaxTracked caps concurrently tracked endpoints (default 4096). A
	// new endpoint arriving at the cap displaces a quiet unflagged one;
	// flagged endpoints are never displaced.
	MaxTracked int
}

// SpreadReport is one flagged endpoint: its address, estimated distinct
// peers, and the timestamp of the packet that first took the estimate
// over the threshold.
type SpreadReport struct {
	Addr         netip.Addr
	DistinctEst  float64
	FirstFlagged int64
}

// spreadDetector adapts detect.StreamDetector — the distinct-count engine
// the fleet also runs — to a packet stream and keeps each flagged endpoint.
// It never rotates, so an endpoint is flagged at most once.
type spreadDetector struct {
	d       *detect.StreamDetector
	flagged []SpreadReport
}

func newSpreadDetector(kind detect.StreamKind, cfg SpreadConfig) (*spreadDetector, error) {
	if cfg.Precision == 0 {
		cfg.Precision = 10
	}
	d, err := detect.NewStreamDetector(detect.StreamConfig{
		Kind:      kind,
		Threshold: cfg.Threshold,
		Precision: cfg.Precision,
		MaxKeys:   cfg.MaxTracked,
	})
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	return &spreadDetector{d: d}, nil
}

// Observe records one packet.
func (s *spreadDetector) Observe(p Packet) {
	for _, al := range s.d.ObservePacket(&p, nil) { // allocates only on an alert
		s.flagged = append(s.flagged, SpreadReport{Addr: netip.MustParseAddr(al.Host), FirstFlagged: al.TS})
	}
}

// Estimate returns the current distinct-peer estimate for an endpoint
// address (0 if it is not tracked).
func (s *spreadDetector) Estimate(addr netip.Addr) float64 { return s.d.Estimate(addr) }

// reports returns the flagged endpoints by current estimate, largest
// first, then by address.
func (s *spreadDetector) reports() []SpreadReport {
	out := slices.Clone(s.flagged)
	for i := range out {
		out[i].DistinctEst = s.d.Estimate(out[i].Addr)
	}
	slices.SortFunc(out, func(a, b SpreadReport) int {
		if c := cmp.Compare(b.DistinctEst, a.DistinctEst); c != 0 {
			return c
		}
		return a.Addr.Compare(b.Addr)
	})
	return out
}

// SuperSpreaderDetector flags sources contacting many distinct destination
// addresses — scan and worm behaviour. Destination ports do not count: a
// source probing many ports on one host is a port scan, not a spreader.
// Feed it the same packet stream as the Meter.
type SuperSpreaderDetector struct{ *spreadDetector }

// NewSuperSpreaderDetector builds a detector from cfg.
func NewSuperSpreaderDetector(cfg SpreadConfig) (*SuperSpreaderDetector, error) {
	s, err := newSpreadDetector(detect.KindSuperSpreader, cfg)
	if err != nil {
		return nil, err
	}
	return &SuperSpreaderDetector{s}, nil
}

// SuperSpreaders returns flagged sources, largest spread first.
func (d *SuperSpreaderDetector) SuperSpreaders() []SpreadReport { return d.reports() }

// DDoSDetector flags destinations contacted by many distinct source
// addresses — volumetric attack victims.
type DDoSDetector struct{ *spreadDetector }

// NewDDoSDetector builds a detector from cfg.
func NewDDoSDetector(cfg SpreadConfig) (*DDoSDetector, error) {
	s, err := newSpreadDetector(detect.KindDDoSVictim, cfg)
	if err != nil {
		return nil, err
	}
	return &DDoSDetector{s}, nil
}

// Victims returns flagged destinations, largest spread first.
func (d *DDoSDetector) Victims() []SpreadReport { return d.reports() }

// FlowEntropy returns the Shannon entropy (bits) of the meter's current
// flow-size distribution. Sudden drops indicate traffic concentration
// (DDoS, elephant bursts); rises indicate dispersion (scans).
func (m *Meter) FlowEntropy() float64 {
	return apps.FlowSizeEntropy(m.sys.MergedSnapshot())
}

// NormalizedFlowEntropy scales FlowEntropy into [0,1].
func (m *Meter) NormalizedFlowEntropy() float64 {
	return apps.NormalizedFlowSizeEntropy(m.sys.MergedSnapshot())
}

// PersistConfig parameterizes long-term persistence tracking.
type PersistConfig struct {
	// WindowEpochs is the sliding window length in epochs (max 64,
	// default 16).
	WindowEpochs int
	// MinEpochs is the presence count that makes a flow persistent
	// (default 3/4 of the window).
	MinEpochs int
}

// PersistentFlow is one long-lived flow report.
type PersistentFlow = detect.PersistentFlow

// PersistenceTracker finds flows that stay active across many measurement
// epochs — beacons, tunnels, covert channels — using the WSAF's long-term
// retention. Feed it Meter.Flows() at every epoch boundary.
type PersistenceTracker struct {
	t *detect.PersistenceTracker
}

// NewPersistenceTracker builds a tracker from cfg.
func NewPersistenceTracker(cfg PersistConfig) (*PersistenceTracker, error) {
	t, err := detect.NewPersistenceTracker(detect.PersistConfig{
		WindowEpochs: cfg.WindowEpochs,
		MinEpochs:    cfg.MinEpochs,
	})
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	return &PersistenceTracker{t: t}, nil
}

// ObserveEpoch records one epoch's flow table (Meter.Flows()).
func (p *PersistenceTracker) ObserveEpoch(flows []FlowRecord) {
	entries := make([]wsaf.Entry, len(flows))
	for i, f := range flows {
		entries[i] = wsaf.Entry{Key: f.Key, Pkts: f.Pkts, Bytes: f.Bytes}
	}
	p.t.ObserveEpoch(entries)
}

// Persistent returns flows present in at least MinEpochs of the window,
// most persistent first.
func (p *PersistenceTracker) Persistent() []PersistentFlow {
	return p.t.Persistent()
}

// Presence returns how many of the window's epochs key appeared in.
func (p *PersistenceTracker) Presence(key FlowKey) int {
	return p.t.Presence(key)
}

// TrafficSummary describes the measured traffic mix. The WSAF holds the
// elephants explicitly; the mice side — the flows FlowRegulator retained —
// is derived by subtraction using the distinct-flow cardinality estimate,
// giving the flow-size-distribution headline numbers (how many mice, how
// small) without per-mouse state.
type TrafficSummary struct {
	// TotalPackets and TotalBytes are exact stream totals.
	TotalPackets uint64
	TotalBytes   uint64
	// DistinctFlowsEst estimates all distinct flows seen (±~2%).
	DistinctFlowsEst float64
	// ElephantFlows / ElephantPkts / ElephantBytes summarize the WSAF.
	ElephantFlows int
	ElephantPkts  float64
	ElephantBytes float64
	// MiceFlowsEst / MicePktsEst / MeanMouseSizeEst describe the retained
	// remainder.
	MiceFlowsEst     float64
	MicePktsEst      float64
	MeanMouseSizeEst float64
}

// TrafficSummary computes the current traffic mix.
func (m *Meter) TrafficSummary() TrafficSummary {
	st := m.Stats()
	var elephantPkts, elephantBytes float64
	flows := m.Flows()
	for _, f := range flows {
		elephantPkts += f.Pkts
		elephantBytes += f.Bytes
	}
	sum := TrafficSummary{
		TotalPackets:     st.Packets,
		TotalBytes:       st.Bytes,
		DistinctFlowsEst: st.DistinctFlowsEst,
		ElephantFlows:    len(flows),
		ElephantPkts:     elephantPkts,
		ElephantBytes:    elephantBytes,
	}
	sum.MiceFlowsEst = sum.DistinctFlowsEst - float64(sum.ElephantFlows)
	if sum.MiceFlowsEst < 0 {
		sum.MiceFlowsEst = 0
	}
	sum.MicePktsEst = float64(st.Packets) - elephantPkts
	if sum.MicePktsEst < 0 {
		sum.MicePktsEst = 0
	}
	if sum.MiceFlowsEst > 0 {
		sum.MeanMouseSizeEst = sum.MicePktsEst / sum.MiceFlowsEst
	}
	return sum
}
