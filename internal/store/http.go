package store

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/netip"
	"strconv"

	"instameasure/internal/packet"
)

// QueryAPI serves the store's query layer as JSON over HTTP:
//
//	GET /flows/topk?k=10&by=packets|bytes&from=E&to=E
//	GET /flows/timeline?flow=<16-hex id> | ?src=&dst=&sport=&dport=&proto=
//	GET /flows/changers?k=10&by=bytes&from=&to=&base-from=&base-to=
//	GET /flows/stats
//
// Mount it on the telemetry server (or any mux) under /flows/.
type QueryAPI struct {
	st *Store
}

// NewQueryAPI builds the handler for st.
func NewQueryAPI(st *Store) *QueryAPI { return &QueryAPI{st: st} }

// Register mounts the API's routes on mux.
func (a *QueryAPI) Register(mux interface {
	Handle(pattern string, handler http.Handler)
}) {
	mux.Handle("/flows/topk", http.HandlerFunc(a.handleTopK))
	mux.Handle("/flows/timeline", http.HandlerFunc(a.handleTimeline))
	mux.Handle("/flows/changers", http.HandlerFunc(a.handleChangers))
	mux.Handle("/flows/stats", http.HandlerFunc(a.handleStats))
}

// ServeHTTP dispatches /flows/* paths, so the API is also usable as a
// single handler.
func (a *QueryAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/flows/topk":
		a.handleTopK(w, r)
	case "/flows/timeline":
		a.handleTimeline(w, r)
	case "/flows/changers":
		a.handleChangers(w, r)
	case "/flows/stats":
		a.handleStats(w, r)
	default:
		http.NotFound(w, r)
	}
}

// flowJSON is one flow in a response: the canonical rendering, the 64-bit
// flow ID (usable with /flows/timeline?flow=), and the metrics.
type flowJSON struct {
	Flow  string  `json:"flow"`
	ID    string  `json:"id"`
	Pkts  float64 `json:"pkts"`
	Bytes float64 `json:"bytes"`
}

// FlowID renders a flow's 64-bit ID, the "id" of every flow in a JSON
// response (store and fleet APIs alike).
func FlowID(k *packet.FlowKey) string {
	return fmt.Sprintf("%016x", k.Hash64(0))
}

// WriteJSON writes v as the indented JSON response body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

// BadRequest answers 400 with the formatted message.
func BadRequest(w http.ResponseWriter, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), http.StatusBadRequest)
}

// IntParam parses an optional integer query parameter.
func IntParam(r *http.Request, name string, def int64) (int64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, s)
	}
	return v, nil
}

// windowParams reads from/to (with optional prefix, e.g. "base-").
func windowParams(r *http.Request, prefix string) (Window, error) {
	from, err := IntParam(r, prefix+"from", 0)
	if err != nil {
		return Window{}, err
	}
	to, err := IntParam(r, prefix+"to", 0)
	if err != nil {
		return Window{}, err
	}
	if from < 0 || to < 0 || (from > 0 && to > 0 && from > to) {
		return Window{}, fmt.Errorf("bad window [%d,%d]", from, to)
	}
	return Window{From: from, To: to}, nil
}

// ByParam reads by=packets|bytes.
func ByParam(r *http.Request) (byBytes bool, name string, err error) {
	switch by := r.URL.Query().Get("by"); by {
	case "", "packets", "pkts":
		return false, "packets", nil
	case "bytes":
		return true, "bytes", nil
	default:
		return false, "", fmt.Errorf("bad by %q (want packets or bytes)", by)
	}
}

func (a *QueryAPI) handleTopK(w http.ResponseWriter, r *http.Request) {
	win, err := windowParams(r, "")
	if err != nil {
		BadRequest(w, "%v", err)
		return
	}
	k, err := IntParam(r, "k", 10)
	if err != nil || k <= 0 {
		BadRequest(w, "bad k")
		return
	}
	byBytes, byName, err := ByParam(r)
	if err != nil {
		BadRequest(w, "%v", err)
		return
	}
	flows, err := a.st.TopK(win, int(k), byBytes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := struct {
		From  int64      `json:"from,omitempty"`
		To    int64      `json:"to,omitempty"`
		By    string     `json:"by"`
		Flows []flowJSON `json:"flows"`
	}{From: win.From, To: win.To, By: byName, Flows: make([]flowJSON, len(flows))}
	for i, f := range flows {
		out.Flows[i] = flowJSON{Flow: f.Key.String(), ID: FlowID(&f.Key), Pkts: f.Pkts, Bytes: f.Bytes}
	}
	WriteJSON(w, out)
}

// timelineKey resolves the flow identity from ?flow=<hex id> or the
// 5-tuple parameters src/dst/sport/dport/proto.
func timelineKey(r *http.Request) (key packet.FlowKey, byHash bool, hash uint64, err error) {
	q := r.URL.Query()
	if id := q.Get("flow"); id != "" {
		h, perr := strconv.ParseUint(id, 16, 64)
		if perr != nil {
			return key, false, 0, fmt.Errorf("bad flow id %q", id)
		}
		return key, true, h, nil
	}
	src, err := netip.ParseAddr(q.Get("src"))
	if err != nil {
		return key, false, 0, fmt.Errorf("bad src %q (need ?flow= or the 5-tuple)", q.Get("src"))
	}
	dst, err := netip.ParseAddr(q.Get("dst"))
	if err != nil {
		return key, false, 0, fmt.Errorf("bad dst %q", q.Get("dst"))
	}
	sport, err := strconv.ParseUint(q.Get("sport"), 10, 16)
	if err != nil {
		return key, false, 0, fmt.Errorf("bad sport %q", q.Get("sport"))
	}
	dport, err := strconv.ParseUint(q.Get("dport"), 10, 16)
	if err != nil {
		return key, false, 0, fmt.Errorf("bad dport %q", q.Get("dport"))
	}
	proto, err := parseProto(q.Get("proto"))
	if err != nil {
		return key, false, 0, err
	}
	if src.Is4() != dst.Is4() {
		return key, false, 0, fmt.Errorf("src and dst address families differ")
	}
	key.SrcPort, key.DstPort, key.Proto = uint16(sport), uint16(dport), proto
	if src.Is4() {
		v4 := src.As4()
		copy(key.SrcIP[:4], v4[:])
		v4 = dst.As4()
		copy(key.DstIP[:4], v4[:])
	} else {
		key.IsV6 = true
		key.SrcIP = src.As16()
		key.DstIP = dst.As16()
	}
	return key, false, 0, nil
}

func parseProto(s string) (uint8, error) {
	switch s {
	case "tcp", "TCP":
		return packet.ProtoTCP, nil
	case "udp", "UDP":
		return packet.ProtoUDP, nil
	case "icmp", "ICMP":
		return packet.ProtoICMP, nil
	}
	v, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("bad proto %q (want tcp/udp/icmp or a number)", s)
	}
	return uint8(v), nil
}

func (a *QueryAPI) handleTimeline(w http.ResponseWriter, r *http.Request) {
	win, err := windowParams(r, "")
	if err != nil {
		BadRequest(w, "%v", err)
		return
	}
	key, byHash, hash, err := timelineKey(r)
	if err != nil {
		BadRequest(w, "%v", err)
		return
	}
	var points []TimelinePoint
	if byHash {
		points, key, err = a.st.TimelineByHash(hash)
		// Hash lookups scan everything anyway; apply the window after.
		if win != (Window{}) {
			kept := points[:0]
			for _, p := range points {
				if (win.From == 0 || p.Epoch >= win.From) && (win.To == 0 || p.Epoch <= win.To) {
					kept = append(kept, p)
				}
			}
			points = kept
		}
	} else {
		points, err = a.st.Timeline(key, win)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := struct {
		Flow   string          `json:"flow"`
		ID     string          `json:"id"`
		Points []TimelinePoint `json:"points"`
	}{Flow: key.String(), ID: FlowID(&key), Points: points}
	if len(points) == 0 {
		out.Flow, out.ID = "", ""
	}
	WriteJSON(w, out)
}

func (a *QueryAPI) handleChangers(w http.ResponseWriter, r *http.Request) {
	newer, err := windowParams(r, "")
	if err != nil {
		BadRequest(w, "%v", err)
		return
	}
	older, err := windowParams(r, "base-")
	if err != nil {
		BadRequest(w, "%v", err)
		return
	}
	if newer == (Window{}) && older == (Window{}) {
		var ok bool
		older, newer, ok = a.st.DefaultChangerWindows()
		if !ok {
			BadRequest(w, "need at least two epochs (or explicit from/to and base-from/base-to)")
			return
		}
	}
	k, err := IntParam(r, "k", 10)
	if err != nil || k <= 0 {
		BadRequest(w, "bad k")
		return
	}
	byBytes, byName, err := ByParam(r)
	if err != nil {
		BadRequest(w, "%v", err)
		return
	}
	changes, err := a.st.HeavyChangers(older, newer, int(k), byBytes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	type changeJSON struct {
		flowJSON
		NewerPkts  float64 `json:"newer_pkts"`
		OlderPkts  float64 `json:"older_pkts"`
		NewerBytes float64 `json:"newer_bytes"`
		OlderBytes float64 `json:"older_bytes"`
	}
	out := struct {
		Newer Window       `json:"newer"`
		Older Window       `json:"older"`
		By    string       `json:"by"`
		Flows []changeJSON `json:"flows"`
	}{Newer: newer, Older: older, By: byName, Flows: make([]changeJSON, len(changes))}
	for i, c := range changes {
		out.Flows[i] = changeJSON{
			flowJSON:  flowJSON{Flow: c.Key.String(), ID: FlowID(&c.Key), Pkts: c.Pkts, Bytes: c.Bytes},
			NewerPkts: c.NewerPkts, OlderPkts: c.OlderPkts,
			NewerBytes: c.NewerBytes, OlderBytes: c.OlderBytes,
		}
	}
	WriteJSON(w, out)
}

func (a *QueryAPI) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, a.st.Stats())
}
