// Package fleet is the network-wide tier above per-meter export: it
// aggregates the cumulative flow snapshots arriving from many metering
// sites into per-site and merged network views, answers global top-k
// and heavy-changer queries with per-site attribution, and drives
// streaming anomaly detectors (DDoS victim, super-spreader, port scan)
// incrementally over each arriving batch — the "network-wide view of
// active flows" deployment the paper sketches for multiple InstaMeasure
// vantage points feeding one collector.
//
// The aggregator consumes export batches via Ingest, which matches the
// export.Collector hook signature, so wiring is one line:
//
//	coll.AddHook(agg.Ingest)
//
// Counters in a record are lifetime totals (the cumulative-counter
// model), so a site's view keeps each flow's latest value while the
// network view accumulates only the per-arrival delta — re-sent
// snapshots are free, and a meter restart (counters moving backward) is
// treated as a fresh life of the flow.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"instameasure/internal/detect"
	"instameasure/internal/export"
	"instameasure/internal/flight"
	"instameasure/internal/flowtable"
	"instameasure/internal/packet"
	"instameasure/internal/store"
)

// DefaultSite labels batches from exporters that set no site ID.
const DefaultSite = "default"

// ErrTooManySites is counted (never returned to the wire) when a batch
// from an unknown site arrives with the site table full.
var ErrTooManySites = errors.New("fleet: site table full")

// Config parameterizes an Aggregator.
type Config struct {
	// MaxSites bounds the number of distinct site views; batches from
	// new sites beyond the bound are dropped and counted. Default 64.
	MaxSites int
	// AlertRingSize bounds the in-memory alert history served over
	// /fleet/alerts. Default 1024.
	AlertRingSize int
	// Detectors are driven per record delta, in order, under the
	// aggregator's lock. The aggregator takes ownership: no other
	// goroutine may touch them afterwards.
	Detectors []*detect.StreamDetector
	// OnAlert, when set, is invoked for every published alert, outside
	// the aggregator's lock (it may query the aggregator).
	OnAlert func(detect.Alert)
}

// counters is a flow's packet and byte count: lifetime totals, or the
// traffic of one rotation window.
type counters struct{ Pkts, Bytes float64 }

// by returns the ranked dimension.
func (c counters) by(byBytes bool) float64 {
	if byBytes {
		return c.Bytes
	}
	return c.Pkts
}

// siteView is one site's latest cumulative flow table plus arrival
// bookkeeping.
type siteView struct {
	flows       flowtable.Table[counters] // each flow's last reported totals
	batches     uint64
	records     uint64
	lastEpoch   int64
	lastArrival int64 // unix nanoseconds
}

// Aggregator maintains the fleet's merged state. All methods are safe
// for concurrent use; Ingest is designed to be called from many
// collector connections at once.
type Aggregator struct {
	cfg Config

	mu    sync.Mutex
	sites map[string]*siteView
	// net is the network-wide view, one entry per flow any site has
	// reported traffic for.
	net flowtable.Table[netFlow]
	// gen numbers the open rotation window. Rotation only adds one: an
	// entry's window counters are dated by netFlow.gen and brought up to
	// date when it is next touched or read.
	gen uint64

	seenBatch    bool
	rotatedEpoch int64
	rotations    uint64
	batches      uint64
	records      uint64
	siteDrops    uint64

	ring *alertRing
	met  atomic.Pointer[metrics]
	fl   flight.Handle
}

// netFlow is one flow in the network-wide view: the cross-site sum of its
// cumulative counters, and its traffic in the rotation window numbered
// gen — the last one it moved in — and in the window before that one
// (zero if it did not move then).
type netFlow struct {
	total     counters
	cur, prev counters
	gen       uint64
}

// windows reads the flow's traffic in the open window gen and in the one
// before it — the heavy-changer view. A window the flow did not move in
// reads zero; live is false when it moved in neither.
func (f *netFlow) windows(gen uint64) (cur, prev counters, live bool) {
	switch f.gen {
	case gen:
		return f.cur, f.prev, true
	case gen - 1:
		return counters{}, f.cur, true
	}
	return counters{}, counters{}, false
}

// touch dates the entry to the open window gen before a delta is added:
// the window it last moved in becomes the previous one, or is forgotten
// if rotation has passed it by more than once.
func (f *netFlow) touch(gen uint64) {
	if f.gen != gen {
		_, f.prev, _ = f.windows(gen)
		f.cur, f.gen = counters{}, gen
	}
}

// New builds an Aggregator.
func New(cfg Config) (*Aggregator, error) {
	if cfg.MaxSites == 0 {
		cfg.MaxSites = 64
	}
	if cfg.MaxSites < 0 {
		return nil, fmt.Errorf("fleet: MaxSites must be positive (got %d)", cfg.MaxSites)
	}
	if cfg.AlertRingSize == 0 {
		cfg.AlertRingSize = 1024
	}
	if cfg.AlertRingSize < 0 {
		return nil, fmt.Errorf("fleet: AlertRingSize must be positive (got %d)", cfg.AlertRingSize)
	}
	return &Aggregator{
		cfg:   cfg,
		sites: make(map[string]*siteView),
		ring:  newAlertRing(cfg.AlertRingSize),
	}, nil
}

// SetFlight wires a flight-recorder handle; aggregate, detect, and
// alert events are recorded per ingested batch.
func (a *Aggregator) SetFlight(h flight.Handle) {
	a.mu.Lock()
	a.fl = h
	a.mu.Unlock()
}

// Ingest folds one exported batch into the fleet state. It matches the
// export.Collector hook signature and may be called concurrently.
// Detector alerts fire from here; the alert ring, OnAlert callback,
// telemetry, and flight events all run after the aggregator's lock is
// released, so a slow alert consumer cannot stall other sites' ingest.
func (a *Aggregator) Ingest(b export.Batch) {
	t0 := time.Now()
	site := b.Site
	if site == "" {
		site = DefaultSite
	}

	var alerts []detect.Alert
	var observed int
	rotated := false

	a.mu.Lock()
	sv := a.sites[site]
	if sv == nil {
		if len(a.sites) >= a.cfg.MaxSites {
			a.siteDrops++
			a.mu.Unlock()
			if m := a.met.Load(); m != nil {
				m.siteDrops.Inc()
			}
			return
		}
		sv = &siteView{}
		a.sites[site] = sv
	}

	// A batch opening a later epoch round closes the current detector
	// and changer window first, so one rotation happens per fleet
	// epoch no matter how many sites report into it. The final-flush
	// epoch (-1) never rotates.
	if !a.seenBatch {
		a.seenBatch = true
		a.rotatedEpoch = b.Epoch
	} else if b.Epoch > a.rotatedEpoch {
		a.rotateLocked()
		a.rotatedEpoch = b.Epoch
		rotated = true
	}

	// One hash per record, hinted a burst ahead, serves both probes: the
	// site's last value (the arrival's delta, replaced in the same visit) and
	// the network entry the delta lands on. A key repeated inside one batch
	// is measured against its previous occurrence, later wins.
	var hs [flowtable.Burst]uint64
	for i := range b.Records {
		if i%flowtable.Burst == 0 {
			for k := range min(flowtable.Burst, len(b.Records)-i) {
				hs[k] = flowtable.Hash(&b.Records[i+k].Key)
				sv.flows.Prefetch(hs[k])
				a.net.Prefetch(hs[k])
			}
		}
		rec, h := &b.Records[i], hs[i%flowtable.Burst]
		last, fresh := sv.flows.Upsert(h, &rec.Key)
		dPkts, dBytes := rec.Pkts, rec.Bytes
		if !fresh {
			dPkts -= last.Pkts
			dBytes -= last.Bytes
			if dPkts < 0 || dBytes < 0 {
				// Counters moved backward: the meter restarted and
				// this is a fresh life of the flow.
				dPkts, dBytes = rec.Pkts, rec.Bytes
			}
		}
		*last = counters{rec.Pkts, rec.Bytes}
		if dPkts == 0 && dBytes == 0 {
			continue
		}
		observed++

		nf, fresh := a.net.Upsert(h, &rec.Key)
		if fresh {
			nf.total = counters{rec.Pkts, rec.Bytes}
		} else {
			nf.total.Pkts += dPkts
			nf.total.Bytes += dBytes
		}
		nf.touch(a.gen)
		nf.cur.Pkts += dPkts
		nf.cur.Bytes += dBytes

		if dPkts > 0 {
			for _, det := range a.cfg.Detectors {
				alerts = det.Observe(site, rec, dPkts, b.Epoch, alerts)
			}
		}
	}

	sv.batches++
	sv.records += uint64(len(b.Records))
	sv.lastEpoch = b.Epoch
	sv.lastArrival = t0.UnixNano()
	a.batches++
	a.records += uint64(len(b.Records))
	fl := a.fl
	a.mu.Unlock()

	for i := range alerts {
		a.ring.publish(&alerts[i])
	}
	if fn := a.cfg.OnAlert; fn != nil {
		for _, al := range alerts {
			fn(al)
		}
	}

	if m := a.met.Load(); m != nil {
		m.batches.Inc()
		m.records.Add(uint64(len(b.Records)))
		if rotated {
			m.rotations.Inc()
		}
		for _, al := range alerts {
			m.alertFor(al.Kind).Inc()
		}
	}

	dur := uint64(time.Since(t0))
	fl.EventAt(t0, flight.StageAggregate, b.Epoch, uint32(len(b.Records)), 0, dur)
	fl.EventAt(t0, flight.StageDetect, b.Epoch, uint32(observed), 0, dur)
	if len(alerts) > 0 {
		fl.EventAt(t0, flight.StageAlert, b.Epoch, uint32(len(alerts)), 0, dur)
	}
}

// Rotate closes the current detector/changer window by hand. Ingest
// rotates automatically when a batch opens a later epoch; explicit
// rotation is for time-driven deployments and tests.
func (a *Aggregator) Rotate() {
	a.mu.Lock()
	a.rotateLocked()
	a.mu.Unlock()
	if m := a.met.Load(); m != nil {
		m.rotations.Inc()
	}
}

func (a *Aggregator) rotateLocked() {
	a.gen++
	for _, det := range a.cfg.Detectors {
		det.Rotate()
	}
	a.rotations++
}

// SiteShare is one site's contribution to a network-wide flow.
type SiteShare struct {
	Site  string  `json:"site"`
	Pkts  float64 `json:"pkts"`
	Bytes float64 `json:"bytes"`
}

// FlowRank is one flow in a network-wide ranking, with per-site
// attribution (sites sorted by name).
type FlowRank struct {
	Key   packet.FlowKey
	Pkts  float64
	Bytes float64
	Sites []SiteShare
}

// TopK returns the k heaviest network-wide flows by lifetime totals,
// attributing each to the sites that observed it.
func (a *Aggregator) TopK(k int, byBytes bool) []FlowRank {
	a.mu.Lock()
	defer a.mu.Unlock()
	ranked := rankCounters(&a.net, k, byBytes, func(f *netFlow) counters { return f.total })
	names := a.siteNamesLocked()
	out := make([]FlowRank, len(ranked))
	for i, d := range ranked {
		fr := FlowRank{Key: d.Key, Pkts: d.Pkts, Bytes: d.Bytes}
		h := flowtable.Hash(&d.Key)
		for _, name := range names {
			if c := a.sites[name].flows.Get(h, &d.Key); c != nil {
				fr.Sites = append(fr.Sites, SiteShare{Site: name, Pkts: c.Pkts, Bytes: c.Bytes})
			}
		}
		out[i] = fr
	}
	return out
}

// rankCounters ranks the flows of one table by packets or bytes in the
// store's order; of reads a flow's ranked counters out of its entry.
func rankCounters[V any](t *flowtable.Table[V], k int, byBytes bool, of func(*V) counters) []store.FlowDelta {
	sel := store.NewRanking(k, t.Len(), store.DeltaKey)
	var d store.FlowDelta // one candidate row for the whole walk: Offer copies what it keeps
	t.Each(func(_ uint64, key *packet.FlowKey, v *V) {
		c := of(v)
		d = store.FlowDelta{Key: *key, Pkts: c.Pkts, Bytes: c.Bytes}
		sel.Offer(c.by(byBytes), &d)
	})
	return sel.Sorted()
}

// SiteTopK returns one site's k heaviest flows by its latest cumulative
// snapshot; ok is false for an unknown site.
func (a *Aggregator) SiteTopK(site string, k int, byBytes bool) (flows []store.FlowDelta, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sv := a.sites[site]
	if sv == nil {
		return nil, false
	}
	return rankCounters(&sv.flows, k, byBytes, func(c *counters) counters { return *c }), true
}

// Changers returns the k flows whose traffic changed most between the
// previous and current rotation window, ranked by absolute change.
func (a *Aggregator) Changers(k int, byBytes bool) []store.FlowChange {
	a.mu.Lock()
	defer a.mu.Unlock()
	sel := store.NewRanking(k, a.net.Len(), func(c *store.FlowChange) *packet.FlowKey { return &c.Key })
	var c store.FlowChange // one candidate row for the whole walk: Offer copies what it keeps
	a.net.Each(func(_ uint64, key *packet.FlowKey, f *netFlow) {
		cur, prev, live := f.windows(a.gen)
		if !live {
			return
		}
		c = store.FlowChange{
			Key:        *key,
			Pkts:       cur.Pkts - prev.Pkts,
			Bytes:      cur.Bytes - prev.Bytes,
			NewerPkts:  cur.Pkts,
			OlderPkts:  prev.Pkts,
			NewerBytes: cur.Bytes,
			OlderBytes: prev.Bytes,
		}
		sel.Offer(abs(counters{c.Pkts, c.Bytes}.by(byBytes)), &c)
	})
	return sel.Sorted()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// SiteStats summarizes one site's view.
type SiteStats struct {
	Site        string  `json:"site"`
	Flows       int     `json:"flows"`
	Batches     uint64  `json:"batches"`
	Records     uint64  `json:"records"`
	Pkts        float64 `json:"pkts"`
	Bytes       float64 `json:"bytes"`
	LastEpoch   int64   `json:"last_epoch"`
	LastArrival int64   `json:"last_arrival_unix_ns"`
}

// Sites lists every site view, sorted by site name.
func (a *Aggregator) Sites() []SiteStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SiteStats, 0, len(a.sites))
	for _, name := range a.siteNamesLocked() {
		sv := a.sites[name]
		st := SiteStats{
			Site:        name,
			Flows:       sv.flows.Len(),
			Batches:     sv.batches,
			Records:     sv.records,
			LastEpoch:   sv.lastEpoch,
			LastArrival: sv.lastArrival,
		}
		sv.flows.Each(func(_ uint64, _ *packet.FlowKey, c *counters) {
			st.Pkts += c.Pkts
			st.Bytes += c.Bytes
		})
		out = append(out, st)
	}
	return out
}

func (a *Aggregator) siteNamesLocked() []string {
	names := make([]string, 0, len(a.sites))
	for name := range a.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Alerts returns up to max alerts with sequence numbers greater than
// since, oldest first. Clients poll with the last Seq they saw; since=0
// starts from the oldest alert still in the ring.
func (a *Aggregator) Alerts(since uint64, max int) []detect.Alert {
	return a.ring.since(since, max)
}

// AlertSeq returns the sequence number of the newest published alert
// (0 when none have fired).
func (a *Aggregator) AlertSeq() uint64 { return a.ring.lastSeq() }

// Stats is a point-in-time summary of the whole aggregator.
type Stats struct {
	Sites        int                  `json:"sites"`
	Flows        int                  `json:"flows"`
	Batches      uint64               `json:"batches"`
	Records      uint64               `json:"records"`
	Rotations    uint64               `json:"rotations"`
	RotatedEpoch int64                `json:"rotated_epoch"`
	SiteDrops    uint64               `json:"site_drops"`
	Alerts       uint64               `json:"alerts"`
	Detectors    []detect.StreamStats `json:"detectors,omitempty"`
}

// Stats summarizes the aggregator.
func (a *Aggregator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Stats{
		Sites:        len(a.sites),
		Flows:        a.net.Len(),
		Batches:      a.batches,
		Records:      a.records,
		Rotations:    a.rotations,
		RotatedEpoch: a.rotatedEpoch,
		SiteDrops:    a.siteDrops,
		Alerts:       a.ring.lastSeq(),
	}
	for _, det := range a.cfg.Detectors {
		st.Detectors = append(st.Detectors, det.Stats())
	}
	return st
}
