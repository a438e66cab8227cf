package oracle

import (
	"testing"

	"instameasure/internal/core"
)

// cachedScale shrinks the cached-leg workload under -short and -race the
// same way the main differential does.
func cachedScale(t *testing.T) (flows, packets int) {
	if testing.Short() || raceEnabled {
		return 6_000, 120_000
	}
	return 30_000, 600_000
}

// TestDifferentialCachedExact is oracle leg (f): with the promotion cache
// enabled, every promoted flow's delta must match the shadow tracker
// bit-for-bit, demotion folds must conserve counts into the WSAF, and the
// batch and sharded executions must hold the same invariants. Runs under
// -race in tier 1 via the TestDifferential name prefix.
func TestDifferentialCachedExact(t *testing.T) {
	flows, packets := cachedScale(t)
	t.Run("probabilistic-4k", func(t *testing.T) {
		tr := genTrace(t, flows, packets, 6151)
		rep, err := RunCached(tr, Config{
			Engine: core.Config{
				WSAFEntries:     1 << 15,
				HotCacheEntries: 4096,
				Seed:            271,
			},
			Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		if rep.Promoted == 0 {
			t.Fatal("no flows promoted; cache never engaged")
		}
		if rep.Exact != rep.Promoted {
			t.Errorf("only %d/%d promoted flows exact", rep.Exact, rep.Promoted)
		}
		if rep.HitRate <= 0 {
			t.Error("cache hit rate is zero on a skewed workload")
		}
		t.Logf("promoted=%d exact=%d demotions=%d folds=%d hitRate=%.3f",
			rep.Promoted, rep.Exact, rep.Demotions, rep.Folds, rep.HitRate)
	})
}

// TestDifferentialCachedChurn forces heavy demotion traffic through a tiny
// cache so the fold-accounting identity is exercised with Folds > 0: every
// demoted delta must land in the WSAF exactly once.
func TestDifferentialCachedChurn(t *testing.T) {
	flows, packets := 4_000, 100_000
	if testing.Short() || raceEnabled {
		flows, packets = 2_000, 60_000
	}
	tr := genTrace(t, flows, packets, 887)
	rep, err := RunCached(tr, Config{
		Engine: core.Config{
			WSAFEntries:     1 << 14,
			HotCacheEntries: 32,
			Seed:            13,
		},
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Demotions == 0 || rep.Folds == 0 {
		t.Fatalf("churn workload produced %d demotions / %d folds; fold accounting untested",
			rep.Demotions, rep.Folds)
	}
	if rep.Exact != rep.Promoted {
		t.Errorf("only %d/%d promoted flows exact after churn", rep.Exact, rep.Promoted)
	}
}

// TestDifferentialCachedTTL runs the cached invariants with WSAF TTL GC
// enabled: demotion folds carry the victim's own timestamps, so expiry
// must never break conservation or leak phantoms.
func TestDifferentialCachedTTL(t *testing.T) {
	tr := genTrace(t, 3_000, 80_000, 4242)
	rep, err := RunCached(tr, Config{
		Engine: core.Config{
			WSAFEntries:     1 << 12,
			WSAFTTL:         tr.Duration() / 10,
			HotCacheEntries: 256,
			Seed:            31,
		},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}
