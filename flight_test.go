package instameasure

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentTelemetryServer hammers the observability endpoints while
// a meter is actively processing — the deployment shape where Prometheus
// scrapes and Kubernetes probes land mid-trace. Run under -race (tier1
// does), this is the data-race gate for the whole metrics/flight/health
// surface.
func TestConcurrentTelemetryServer(t *testing.T) {
	tr := testTrace(t)
	m := testMeter(t)
	srv, err := m.Telemetry().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterHealth("self", func() error { return nil })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/debug/vars", "/healthz", "/debug/flight", "/readyz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL() + path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				_, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if cerr != nil {
					t.Errorf("%s: read: %v", path, cerr)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}

	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestFlightSmoke is the acceptance run for the flight recorder: a live
// exporter→collector→store pipeline, then /debug/flight must reconstruct
// the epoch's complete cut→encode→send→receive→commit timeline from the
// process-wide recorder. The flight-smoke make target runs exactly this.
func TestFlightSmoke(t *testing.T) {
	// The Default() recorder is shared by every test in this binary, so
	// this test claims a distinctive epoch id no other test uses.
	const epoch = 774_411

	coll, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	fs, err := OpenFlowStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	coll.WithStore(fs)

	tr := testTrace(t)
	m := testMeter(t)
	if _, err := m.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}

	exp, err := DialCollector(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if !exp.Connected() {
		t.Error("freshly dialed exporter reports not connected")
	}
	if !coll.Listening() {
		t.Error("open collector reports not listening")
	}
	if err := fs.Healthy(); err != nil {
		t.Errorf("open store reports unhealthy: %v", err)
	}

	SetDetectionDelayBudget(5 * time.Second)
	m.MarkEpochCut(epoch)
	if err := exp.ExportMeter(m, epoch); err != nil {
		t.Fatal(err)
	}

	// The collector merges and commits on its connection goroutine; poll
	// the recorder until the epoch's timeline closes.
	deadline := time.Now().Add(10 * time.Second)
	var tl *FlightEpoch
	for time.Now().Before(deadline) {
		d := FlightSnapshot()
		for i := range d.Epochs {
			if d.Epochs[i].Epoch == epoch && d.Epochs[i].Complete {
				tl = &d.Epochs[i]
			}
		}
		if tl != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tl == nil {
		t.Fatalf("epoch %d never completed in the flight recorder:\n%+v", epoch, FlightSnapshot().Epochs)
	}

	seen := map[string]bool{}
	for _, mark := range tl.Stages {
		seen[mark.Stage.String()] = true
	}
	for _, want := range []string{"cut", "encode", "send", "receive", "commit"} {
		if !seen[want] {
			t.Errorf("epoch %d timeline missing the %s stage (saw %v)", epoch, want, seen)
		}
	}
	if tl.CutToCommitNS <= 0 {
		t.Errorf("complete epoch has cut→commit %dns", tl.CutToCommitNS)
	}

	// The same timeline must come back over HTTP, in both views, and the
	// SLO tracker must have measured the epoch against the budget.
	srv, err := m.Telemetry().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("/debug/flight is not a JSON dump: %v", err)
	}
	found := false
	for _, e := range d.Epochs {
		if e.Epoch == epoch && e.Complete {
			found = true
		}
	}
	if !found {
		t.Errorf("/debug/flight lost epoch %d's complete timeline", epoch)
	}
	if d.SLO.Epochs == 0 {
		t.Error("SLO tracker measured no epochs after a cut→commit pair")
	}
	if d.SLO.BudgetNS != int64(5*time.Second) {
		t.Errorf("SLO budget = %dns, want 5s", d.SLO.BudgetNS)
	}

	resp, err = http.Get(srv.URL() + "/debug/flight?fmt=text")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "epoch 774411") {
		t.Errorf("text timeline missing the epoch header:\n%s", text)
	}

	// Health probes: everything is up, so /readyz serves 200.
	srv.RegisterHealth("exporter", func() error {
		if !exp.Connected() {
			return errors.New("collector connection down")
		}
		return nil
	})
	srv.ServeFlows(fs)
	resp, err = http.Get(srv.URL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain only
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz with healthy components = %d, want 200", resp.StatusCode)
	}
}
