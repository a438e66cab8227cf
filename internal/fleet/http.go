package fleet

import (
	"net/http"

	"instameasure/internal/detect"
	"instameasure/internal/store"
)

// API serves the fleet tier as JSON over HTTP:
//
//	GET /fleet/sites
//	GET /fleet/topk?k=10&by=packets|bytes[&site=NAME]
//	GET /fleet/changers?k=10&by=packets|bytes
//	GET /fleet/alerts?since=SEQ&max=100
//	GET /fleet/stats
//
// Mount it on the telemetry server (or any mux) under /fleet/.
type API struct {
	agg *Aggregator
}

// NewAPI builds the handler for agg.
func NewAPI(agg *Aggregator) *API { return &API{agg: agg} }

// Register mounts the API's routes on mux.
func (a *API) Register(mux interface {
	Handle(pattern string, handler http.Handler)
}) {
	mux.Handle("/fleet/sites", http.HandlerFunc(a.handleSites))
	mux.Handle("/fleet/topk", http.HandlerFunc(a.handleTopK))
	mux.Handle("/fleet/changers", http.HandlerFunc(a.handleChangers))
	mux.Handle("/fleet/alerts", http.HandlerFunc(a.handleAlerts))
	mux.Handle("/fleet/stats", http.HandlerFunc(a.handleStats))
}

// ServeHTTP dispatches /fleet/* paths, so the API is also usable as a
// single handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/fleet/sites":
		a.handleSites(w, r)
	case "/fleet/topk":
		a.handleTopK(w, r)
	case "/fleet/changers":
		a.handleChangers(w, r)
	case "/fleet/alerts":
		a.handleAlerts(w, r)
	case "/fleet/stats":
		a.handleStats(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (a *API) handleSites(w http.ResponseWriter, r *http.Request) {
	store.WriteJSON(w, struct {
		Sites []SiteStats `json:"sites"`
	}{Sites: a.agg.Sites()})
}

// rankJSON is one flow in a top-k response.
type rankJSON struct {
	Flow  string      `json:"flow"`
	ID    string      `json:"id"`
	Pkts  float64     `json:"pkts"`
	Bytes float64     `json:"bytes"`
	Sites []SiteShare `json:"sites,omitempty"`
}

func (a *API) handleTopK(w http.ResponseWriter, r *http.Request) {
	k, err := store.IntParam(r, "k", 10)
	if err != nil || k <= 0 {
		store.BadRequest(w, "bad k")
		return
	}
	byBytes, byName, err := store.ByParam(r)
	if err != nil {
		store.BadRequest(w, "%v", err)
		return
	}
	out := struct {
		By    string     `json:"by"`
		Site  string     `json:"site,omitempty"`
		Flows []rankJSON `json:"flows"`
	}{By: byName, Flows: []rankJSON{}}
	if site := r.URL.Query().Get("site"); site != "" {
		flows, ok := a.agg.SiteTopK(site, int(k), byBytes)
		if !ok {
			store.BadRequest(w, "unknown site %q", site)
			return
		}
		out.Site = site
		for _, f := range flows {
			out.Flows = append(out.Flows, rankJSON{
				Flow: f.Key.String(), ID: store.FlowID(&f.Key), Pkts: f.Pkts, Bytes: f.Bytes,
			})
		}
	} else {
		for _, f := range a.agg.TopK(int(k), byBytes) {
			out.Flows = append(out.Flows, rankJSON{
				Flow: f.Key.String(), ID: store.FlowID(&f.Key),
				Pkts: f.Pkts, Bytes: f.Bytes, Sites: f.Sites,
			})
		}
	}
	store.WriteJSON(w, out)
}

func (a *API) handleChangers(w http.ResponseWriter, r *http.Request) {
	k, err := store.IntParam(r, "k", 10)
	if err != nil || k <= 0 {
		store.BadRequest(w, "bad k")
		return
	}
	byBytes, byName, err := store.ByParam(r)
	if err != nil {
		store.BadRequest(w, "%v", err)
		return
	}
	type changeJSON struct {
		Flow       string  `json:"flow"`
		ID         string  `json:"id"`
		Pkts       float64 `json:"pkts"`
		Bytes      float64 `json:"bytes"`
		NewerPkts  float64 `json:"newer_pkts"`
		OlderPkts  float64 `json:"older_pkts"`
		NewerBytes float64 `json:"newer_bytes"`
		OlderBytes float64 `json:"older_bytes"`
	}
	changes := a.agg.Changers(int(k), byBytes)
	out := struct {
		By    string       `json:"by"`
		Flows []changeJSON `json:"flows"`
	}{By: byName, Flows: make([]changeJSON, len(changes))}
	for i, c := range changes {
		out.Flows[i] = changeJSON{
			Flow: c.Key.String(), ID: store.FlowID(&c.Key),
			Pkts: c.Pkts, Bytes: c.Bytes,
			NewerPkts: c.NewerPkts, OlderPkts: c.OlderPkts,
			NewerBytes: c.NewerBytes, OlderBytes: c.OlderBytes,
		}
	}
	store.WriteJSON(w, out)
}

func (a *API) handleAlerts(w http.ResponseWriter, r *http.Request) {
	since, err := store.IntParam(r, "since", 0)
	if err != nil || since < 0 {
		store.BadRequest(w, "bad since")
		return
	}
	max, err := store.IntParam(r, "max", 100)
	if err != nil || max <= 0 {
		store.BadRequest(w, "bad max")
		return
	}
	alerts := a.agg.Alerts(uint64(since), int(max))
	if alerts == nil {
		alerts = []detect.Alert{}
	}
	store.WriteJSON(w, struct {
		LastSeq uint64         `json:"last_seq"`
		Alerts  []detect.Alert `json:"alerts"`
	}{LastSeq: a.agg.AlertSeq(), Alerts: alerts})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	store.WriteJSON(w, a.agg.Stats())
}
