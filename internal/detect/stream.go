package detect

import (
	"errors"
	"fmt"
	"math"
	"net/netip"

	"instameasure/internal/export"
	"instameasure/internal/flowhash"
	"instameasure/internal/hll"
	"instameasure/internal/packet"
)

// StreamKind selects which traffic pattern a StreamDetector watches for.
// All three are distinct-count detectors over a grouping of the 5-tuple:
// the paper names SuperSpreader and DDoS detection as the downstream
// consumers of the WSAF's mice-heavy working set (Section II), and a
// port scan is the same shape with ports as the counted element.
type StreamKind uint8

const (
	// KindDDoSVictim groups by destination address and counts distinct
	// source addresses: many sources converging on one destination.
	KindDDoSVictim StreamKind = iota + 1
	// KindSuperSpreader groups by source address and counts distinct
	// destination addresses: one source fanning out to many hosts. Port
	// fan-out to one host is KindPortScan's signal, not this one's.
	KindSuperSpreader
	// KindPortScan groups by source address and counts distinct
	// destination ports: one source probing many services.
	KindPortScan
)

// String names the kind for alert payloads and telemetry labels.
func (k StreamKind) String() string {
	switch k {
	case KindDDoSVictim:
		return "ddos_victim"
	case KindSuperSpreader:
		return "super_spreader"
	case KindPortScan:
		return "port_scan"
	default:
		return fmt.Sprintf("stream_kind_%d", uint8(k))
	}
}

// Per-kind hash salts keep the three detectors' element hashes
// independent even when the underlying bytes coincide (an address that
// is both a source and a destination, a port equal to an address
// prefix).
const (
	saltDDoS     = 0x1157a0d0_5a17_0001
	saltSpreader = 0x1157a0d0_5a17_0002
	saltScan     = 0x1157a0d0_5a17_0003
)

// Errors returned by NewStreamDetector.
var (
	ErrStreamKind = errors.New("detect: unknown stream detector kind")
	// ErrThreshold (shared with HeavyHitterDetector) rejects a
	// non-positive or non-finite firing threshold.
)

// StreamConfig parameterizes one streaming distinct-count detector.
type StreamConfig struct {
	// Kind selects the grouping/element pattern. Required.
	Kind StreamKind
	// Threshold is the distinct-element estimate that fires an alert.
	// Required > 0 and finite.
	Threshold float64
	// Precision is the per-group HyperLogLog precision. Default 8
	// (256 registers, ~6.5% standard error, 256 B per tracked group).
	Precision int
	// MaxKeys bounds the number of concurrently tracked group keys.
	// When full, a new group displaces the unlatched group with the
	// fewest observations this pane among admitSample sampled ones; if
	// every sampled group is latched, the newcomer is refused (counted
	// in Drops). Default 4096.
	MaxKeys int
}

// Alert is one detector firing: a group key crossed its threshold while
// armed. Seq is assigned by the alert ring when the alert is published.
type Alert struct {
	Seq       uint64   `json:"seq"`
	Kind      string   `json:"kind"`
	Host      string   `json:"host"`
	Estimate  float64  `json:"estimate"`
	Threshold float64  `json:"threshold"`
	Pkts      float64  `json:"pkts"`
	Sites     []string `json:"sites,omitempty"`
	Epoch     int64    `json:"epoch"`
	TS        int64    `json:"ts"`
}

// maxAlertSites bounds the per-group site attribution list; attacks
// seen at more sites than this report the first maxAlertSites.
const maxAlertSites = 8

// streamEntry is the per-group state: one HLL window pane plus the
// hysteresis latch. ~256 B at the default precision.
type streamEntry struct {
	sk      *hll.Sketch
	pkts    float64  // packet delta folded into the current pane
	adds    float64  // element observations this pane (distinct <= adds)
	lastTS  int64    // newest trace timestamp observed
	touched uint64   // pane sequence of the last observation
	alerted bool     // latched: fired this episode, waiting to clear
	rose    bool     // a register rose since the last estimate scan
	sites   []string // bounded attribution: sites that touched the group
}

// StreamDetector watches a stream of per-flow traffic deltas for one
// distinct-count pattern. Groups live in a bounded keyed table of
// HyperLogLog panes; a pane spans the interval between two Rotate
// calls. HLL insertion is idempotent, so re-observations under the
// cumulative-counter export model are harmless — only the per-flow
// *delta* gates whether a record is observed at all (the caller skips
// records whose counters did not advance).
//
// Alerting is edge-triggered with hysteresis: a group fires when its
// pane estimate first reaches Threshold, then stays latched until a
// pane closes at or below clearRatio*Threshold. A sustained attack
// therefore alerts exactly once per episode, not once per window.
//
// It is the one distinct-count engine: the fleet aggregator feeds it flow
// records (Observe), the public SuperSpreader and DDoS detectors feed it
// packets (ObservePacket).
//
// Not safe for concurrent use; the fleet aggregator drives all
// detectors under its own lock.
type StreamDetector struct {
	cfg      StreamConfig
	clearAbs float64 // clearRatio * Threshold
	estFloor float64 // skip Estimate() until adds reaches this
	pane     uint64
	keys     map[netip.Addr]*streamEntry

	fired     uint64
	drops     uint64
	evictions uint64
	scans     uint64 // register scans bump ran
}

// StreamStats is a point-in-time summary of a detector's state.
type StreamStats struct {
	Kind      string  `json:"kind"`
	Threshold float64 `json:"threshold"`
	Keys      int     `json:"keys"`
	Pane      uint64  `json:"pane"`
	Fired     uint64  `json:"fired"`
	// Drops counts new groups refused by a full table whose sample was
	// all latched; Evictions counts groups removed, idle at Rotate or
	// displaced to admit a new group.
	Drops     uint64 `json:"drops"`
	Evictions uint64 `json:"evictions"`
}

// clearRatio re-arms an alerted group when a pane closes with its
// estimate at or below clearRatio*Threshold: the hysteresis band that
// keeps one attack episode from firing once per window.
const clearRatio = 0.5

// NewStreamDetector validates cfg, applies defaults, and returns a
// detector.
func NewStreamDetector(cfg StreamConfig) (*StreamDetector, error) {
	switch cfg.Kind {
	case KindDDoSVictim, KindSuperSpreader, KindPortScan:
	default:
		return nil, fmt.Errorf("%w (%d)", ErrStreamKind, cfg.Kind)
	}
	// Negated comparisons reject NaN: it would never fire, yet scan the
	// registers on every record (adds < NaN is false).
	if !(cfg.Threshold > 0) || math.IsInf(cfg.Threshold, 1) {
		return nil, fmt.Errorf("%w (got %g)", ErrThreshold, cfg.Threshold)
	}
	if cfg.Precision == 0 {
		cfg.Precision = 8
	}
	if cfg.MaxKeys == 0 {
		cfg.MaxKeys = 4096
	}
	if cfg.MaxKeys < 0 {
		return nil, fmt.Errorf("detect: MaxKeys must be positive (got %d)", cfg.MaxKeys)
	}
	if _, err := hll.New(cfg.Precision); err != nil {
		return nil, err
	}
	return &StreamDetector{
		cfg:      cfg,
		clearAbs: clearRatio * cfg.Threshold,
		// Distinct count never exceeds observation count, and the HLL
		// error at the default precision is a few percent, so until a
		// pane has seen Threshold/2 observations its estimate cannot
		// plausibly reach Threshold — skip the register scan entirely.
		estFloor: cfg.Threshold / 2,
		keys:     make(map[netip.Addr]*streamEntry),
	}, nil
}

// Kind returns the configured pattern.
func (d *StreamDetector) Kind() StreamKind { return d.cfg.Kind }

// Stats summarizes the detector's current state.
func (d *StreamDetector) Stats() StreamStats {
	return StreamStats{
		Kind:      d.cfg.Kind.String(),
		Threshold: d.cfg.Threshold,
		Keys:      len(d.keys),
		Pane:      d.pane,
		Fired:     d.fired,
		Drops:     d.drops,
		Evictions: d.evictions,
	}
}

// Observe feeds one flow record whose counters advanced by dPkts
// packets since the site's previous snapshot. Fired alerts are appended
// to alerts (which may be nil) and the extended slice returned; site
// tags the record's origin for attribution.
func (d *StreamDetector) Observe(site string, rec *export.Record, dPkts float64, epoch int64, alerts []Alert) []Alert {
	k := &rec.Key
	var group netip.Addr
	var elem uint64
	switch d.cfg.Kind {
	case KindDDoSVictim:
		group = k.DstAddr()
		elem = hashAddr(&k.SrcIP, k.IsV6, saltDDoS)
	case KindSuperSpreader:
		group = k.SrcAddr()
		elem = hashAddr(&k.DstIP, k.IsV6, saltSpreader)
	case KindPortScan:
		group = k.SrcAddr()
		pb := [2]byte{byte(k.DstPort >> 8), byte(k.DstPort)}
		elem = flowhash.Sum64(pb[:], saltScan)
	default:
		return alerts
	}

	e := d.keys[group]
	if e == nil {
		if len(d.keys) < d.cfg.MaxKeys {
			e = &streamEntry{sk: hll.MustNew(d.cfg.Precision)}
		} else if e = d.displace(); e == nil {
			d.drops++
			return alerts
		}
		d.keys[group] = e
	}
	crossed, est := d.bump(e, elem, dPkts, rec.LastUpdate)
	addSite(e, site)
	if crossed {
		d.fired++
		alerts = append(alerts, Alert{
			Kind:      d.cfg.Kind.String(),
			Host:      group.String(),
			Estimate:  est,
			Threshold: d.cfg.Threshold,
			Pkts:      e.pkts,
			Sites:     append([]string(nil), e.sites...),
			Epoch:     epoch,
			TS:        e.lastTS,
		})
	}
	return alerts
}

// ObservePacket is Observe for one packet: a one-packet record with no
// site, LastUpdate = p.TS, epoch 0.
func (d *StreamDetector) ObservePacket(p *packet.Packet, alerts []Alert) []Alert {
	rec := export.Record{Key: p.Key, LastUpdate: p.TS}
	return d.Observe("", &rec, 1, 0, alerts)
}

// Estimate returns group's current pane estimate, 0 if it is not tracked.
func (d *StreamDetector) Estimate(group netip.Addr) float64 {
	if e := d.keys[group]; e != nil {
		return e.sk.Estimate()
	}
	return 0
}

// admitSample bounds the groups a full table inspects per admission (map
// iteration starts at a random position, so the sample moves).
const admitSample = 32

// displace evicts, among admitSample groups, the unlatched one with the
// fewest observations this pane and returns its entry reset for reuse. It
// never displaces a latched group, so an episode still alerts exactly
// once; with an all-latched sample it returns nil.
func (d *StreamDetector) displace() *streamEntry {
	var victim netip.Addr
	var ve *streamEntry
	n := 0
	for g, e := range d.keys {
		if !e.alerted && (ve == nil || e.adds < ve.adds) {
			victim, ve = g, e
		}
		if n++; n == admitSample {
			break
		}
	}
	if ve == nil {
		return nil
	}
	delete(d.keys, victim)
	d.evictions++
	ve.sk.Reset()
	*ve = streamEntry{sk: ve.sk, sites: ve.sites[:0]}
	return ve
}

// bump folds one element observation into a group's pane and reports a
// threshold crossing. This is the detector's per-record seam on the
// collector ingest path: register max, scalar bumps, and — only for
// groups already near the threshold, and only when a register rose since
// the last scan — a register scan. The estimate is a function of the
// registers alone, so a scan without a rise would repeat the last one's
// below-threshold answer. No allocation.
//
//im:hotpath
func (d *StreamDetector) bump(e *streamEntry, elem uint64, dPkts float64, ts int64) (crossed bool, est float64) {
	if e.sk.Add(elem) {
		e.rose = true
	}
	e.pkts += dPkts
	e.adds++
	e.touched = d.pane
	if ts > e.lastTS {
		e.lastTS = ts
	}
	if e.alerted || e.adds < d.estFloor || !e.rose {
		return false, 0
	}
	e.rose = false
	d.scans++
	est = e.sk.Estimate()
	if est >= d.cfg.Threshold {
		e.alerted = true
		return true, est
	}
	return false, 0
}

// Rotate closes the current window pane: hysteresis re-arms alerted
// groups whose estimate fell to the clear band, idle groups are
// evicted, and every surviving pane is reset for the next window.
func (d *StreamDetector) Rotate() {
	d.pane++
	for g, e := range d.keys {
		// Untouched for the entire pane that just closed: the group
		// went quiet — evict, ending any latched episode.
		if e.touched+1 < d.pane {
			delete(d.keys, g)
			d.evictions++
			continue
		}
		if e.alerted && e.sk.Estimate() <= d.clearAbs {
			e.alerted = false
		}
		e.sk.Reset()
		e.pkts = 0
		e.adds = 0
		e.sites = e.sites[:0]
	}
}

// hashAddr hashes the meaningful prefix of a flow-key address array.
func hashAddr(addr *[16]byte, isV6 bool, seed uint64) uint64 {
	if isV6 {
		return flowhash.Sum64(addr[:], seed)
	}
	return flowhash.Sum64(addr[:4], seed)
}

// addSite records site in a group's bounded attribution list; "" (a
// packet-fed observation) attributes nothing.
func addSite(e *streamEntry, site string) {
	if site == "" {
		return
	}
	for _, s := range e.sites {
		if s == site {
			return
		}
	}
	if len(e.sites) < maxAlertSites {
		e.sites = append(e.sites, site)
	}
}
