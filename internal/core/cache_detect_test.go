package core

import (
	"testing"

	"instameasure/internal/hotcache"
	"instameasure/internal/packet"
)

// promote plants key in the engine's hot cache with the given
// pre-promotion base totals, bypassing the regulator — the direct route
// to a deterministic cache-resident flow.
func promote(t *testing.T, e *Engine, key packet.FlowKey, basePkts, baseBytes float64) {
	t.Helper()
	h := key.Hash64(e.HashSeed())
	if res := e.cache.Admit(h, &key, 0, 0, basePkts, baseBytes, &e.victim); res != hotcache.AdmittedFree {
		t.Fatalf("Admit = %v, want AdmittedFree", res)
	}
}

// TestCachedFlowStaysDetectionVisible is the regression for the
// silent-heavy-hitter bug: cache hits bypass the regulator and used to
// fire no pass events at all, so a flow promoted below a detection
// threshold crossed it invisibly. With thresholds armed, the crossing
// hit must fire exactly one synthetic Cached event carrying the merged
// totals.
func TestCachedFlowStaysDetectionVisible(t *testing.T) {
	for _, mode := range []string{"scalar", "batch"} {
		t.Run(mode, func(t *testing.T) {
			e := testEngine(t, Config{HotCacheEntries: 64, Seed: 9})
			var events []PassEvent
			e.OnPass(func(ev PassEvent) {
				if ev.Cached {
					events = append(events, ev)
				}
			})
			e.SetDetectThresholds(50, 0)

			flow := packet.V4Key(1, 2, 3, 4, packet.ProtoUDP)
			promote(t, e, flow, 4, 400) // promoted well below the threshold

			pkts := make([]packet.Packet, 60)
			for i := range pkts {
				pkts[i] = packet.Packet{Key: flow, Len: 100, TS: int64(i + 1)}
			}
			if mode == "scalar" {
				for i := range pkts {
					e.Process(pkts[i])
				}
			} else {
				e.ProcessBatch(pkts)
			}

			if len(events) != 1 {
				t.Fatalf("cached crossing events = %d, want exactly 1", len(events))
			}
			ev := events[0]
			// Crossing lands on the 46th hit: base 4 + delta 46 = 50.
			if ev.Key != flow || ev.Pkts != 50 || ev.TS != 46 {
				t.Fatalf("event = %+v, want flow crossing at merged 50 pkts, ts 46", ev)
			}
			if ev.Bytes != 400+46*100 {
				t.Fatalf("event bytes = %.0f, want merged %d", ev.Bytes, 400+46*100)
			}
		})
	}
}

// TestCachedCrossingNotRefiredForCrossedBase: a flow whose pre-promotion
// WSAF totals already crossed the threshold was reported through the
// regular passthrough event; the cache must not report it again.
func TestCachedCrossingNotRefiredForCrossedBase(t *testing.T) {
	e := testEngine(t, Config{HotCacheEntries: 64, Seed: 9})
	fired := 0
	e.OnPass(func(ev PassEvent) {
		if ev.Cached {
			fired++
		}
	})
	e.SetDetectThresholds(50, 0)

	flow := packet.V4Key(5, 6, 7, 8, packet.ProtoTCP)
	promote(t, e, flow, 200, 20_000) // base already past the threshold
	for i := 0; i < 30; i++ {
		e.Process(packet.Packet{Key: flow, Len: 100, TS: int64(i + 1)})
	}
	if fired != 0 {
		t.Fatalf("cached crossing fired %d times for a pre-crossed base, want 0", fired)
	}
}

// TestCachedLookupNoPhantomZeroDelta: a zero-delta cache entry whose
// flow has no live WSAF record is not a live flow — Lookup must agree
// with Snapshot and report not-found instead of synthesizing a
// zero-count entry (the regression).
func TestCachedLookupNoPhantomZeroDelta(t *testing.T) {
	e := testEngine(t, Config{HotCacheEntries: 64, Seed: 9})
	flow := packet.V4Key(9, 10, 11, 12, packet.ProtoUDP)
	promote(t, e, flow, 0, 0) // cached, zero delta, no WSAF entry

	if _, ok := e.Lookup(flow); ok {
		t.Fatal("Lookup reported a phantom flow Snapshot would not contain")
	}
	for _, en := range e.Snapshot() {
		if en.Key == flow {
			t.Fatal("Snapshot contains the zero-delta cache-only flow")
		}
	}

	// One cache hit makes the exact segment live again — now both
	// readers must surface it, in agreement.
	e.Process(packet.Packet{Key: flow, Len: 64, TS: 1})
	entry, ok := e.Lookup(flow)
	if !ok {
		t.Fatal("Lookup missed the flow after its delta went live")
	}
	if entry.Pkts != 1 || entry.Bytes != 64 {
		t.Fatalf("entry = %+v, want exact (1, 64)", entry)
	}
}

// TestCacheFoldDropsObservable: demotion folds that the WSAF drops lose
// the victim's exact delta, so the engine counts them. Under the current
// eviction policies Accumulate always finds a victim, so the counter
// must stay zero through heavy churn — it exists to make any future
// conservation gap visible rather than silent.
func TestCacheFoldDropsObservable(t *testing.T) {
	e := testEngine(t, Config{
		HotCacheEntries: 8, // one set: admissions constantly demote
		HotCachePolicy:  hotcache.AdmitAlways,
		Seed:            9,
	})
	tr := batchTrace(t, 500, 60_000, 17)
	for i := range tr.Packets {
		e.Process(tr.Packets[i])
	}
	if e.HotCache().Stats().Demotions == 0 {
		t.Fatal("churn produced no demotions; the fold path was never exercised")
	}
	if got := e.CacheFoldDrops(); got != 0 {
		t.Fatalf("CacheFoldDrops = %d, want 0 (no fold may be dropped silently)", got)
	}
}
