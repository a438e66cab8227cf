package flight_test

import (
	"runtime"
	"testing"
	"time"

	"instameasure"
	"instameasure/internal/flight"
)

// TestDroppedSystemsReleaseRegistries: every Meter and Cluster instruments
// its registry on flight.Default(). Build–run–drop cycles must leave the
// recorder's bindings and the heap flat — the recorder lives for the whole
// process and must not keep each run's registry with it.
func TestDroppedSystemsReleaseRegistries(t *testing.T) {
	tr, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{Flows: 500, TotalPackets: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := instameasure.Config{SketchMemoryBytes: 4 << 10, WSAFEntries: 1 << 10, Seed: 1}
	cycles := []struct {
		name string
		run  func() error
	}{
		{"meter", func() error {
			m, err := instameasure.New(cfg)
			if err == nil {
				_, err = m.Run(tr.Source())
			}
			return err
		}},
		{"cluster", func() error {
			c, err := instameasure.NewCluster(instameasure.ClusterConfig{Meter: cfg, Workers: 2})
			if err == nil {
				_, err = c.Run(tr.Source())
			}
			return err
		}},
	}
	rec := flight.Default()
	for _, c := range cycles {
		t.Run(c.name, func(t *testing.T) {
			drive := func(n int) {
				for i := 0; i < n; i++ {
					if err := c.run(); err != nil {
						t.Fatal(err)
					}
				}
			}
			base := settle(rec, rec.Registries())
			drive(20)
			regs0 := settle(rec, base)
			heap0 := liveHeap()
			drive(200)
			regs1 := settle(rec, base)
			heap1 := liveHeap()
			if regs0 > base || regs1 > base {
				t.Errorf("registries retained: %d before, %d after 20 cycles, %d after 220", base, regs0, regs1)
			}
			// A retained registry is ~190–600 KB; 200 of them would be tens
			// of MB.
			if grown := int64(heap1) - int64(heap0); grown > 4<<20 {
				t.Errorf("live heap grew %d KB over 200 cycles", grown>>10)
			}
		})
	}
}

// settle collects until the recorder feeds at most want registries (the
// release runs after the collection that finds a registry unreachable), or
// gives up after a bounded wait; it returns the count it settled at.
func settle(rec *flight.Recorder, want int) int {
	for i := 0; i < 100; i++ {
		runtime.GC()
		if rec.Registries() <= want {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return rec.Registries()
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
