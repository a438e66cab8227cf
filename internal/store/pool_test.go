package store

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"instameasure/internal/export"
	"instameasure/internal/flowtable"
	"instameasure/internal/packet"
)

// allocated is the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmQueriesAllocateForTheAnswer: a windowed query fills an
// 80 000-flow table and reads 40 000-record frames, but once one query has
// run, the next takes the table and the frame buffer back from their pools
// and allocates for its answer — less than a tenth of the table it fills.
func TestWarmQueriesAllocateForTheAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const sites, flows, epochs = 2, 40_000, 12
	s := openTestStore(t, t.TempDir(), Options{})
	recs := make([]export.Record, flows)
	for e := int64(1); e <= epochs; e++ {
		for site := range sites {
			for i := range recs {
				pkts := float64(e) * float64(1+i%97)
				src := 0x0A000000 | uint32(site)<<22 | uint32(i)
				recs[i] = export.Record{Key: packet.V4Key(src, 0xC0A80001, uint16(i), 443, packet.ProtoTCP),
					Pkts: pkts, Bytes: 64 * pkts, FirstSeen: 1, LastUpdate: e}
			}
			mustAppend(t, s, e, recs, export.TableStats{})
		}
	}
	table := allocated(func() {
		var t flowtable.Table[flowWindow]
		t.Reset(sites * flows)
	})
	older, newer, _ := s.DefaultChangerWindows()
	// A collection between the warm-up and the measurement empties the
	// pools the warm queries take their table and buffer back from, so
	// only the explicit one ahead of each warm-up runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, q := range []struct {
		name string
		run  func() error
	}{
		{"TopK", func() error { _, err := s.TopK(Window{From: epochs - 9, To: epochs}, 100, false); return err }},
		{"HeavyChangers", func() error { _, err := s.HeavyChangers(older, newer, 100, false); return err }},
	} {
		runtime.GC()
		if err := q.run(); err != nil { // warm-up: fills the pools
			t.Fatal(err)
		}
		const runs = 4
		per := allocated(func() {
			for range runs {
				if err := q.run(); err != nil {
					t.Fatal(err)
				}
			}
		}) / runs
		t.Logf("%s: %d B per warm query, window table %d B", q.name, per, table)
		if per >= table/10 {
			t.Errorf("%s allocates %d B per warm query, want < %d (a tenth of its %d B window table)", q.name, per, table/10, table)
		}
	}
}

// TestConcurrentQueriesMatchSerial: queries share pooled readers, window
// tables and burst buffers across goroutines only through the pool, so
// top-k and heavy-changer answers computed concurrently equal the serial
// ones (run under -race).
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	s, last := diffStore(t, 7, 0)
	windows := []Window{{}, {From: 2, To: last}, {From: 3, To: 7}, {From: last, To: last}}
	older, newer, _ := s.DefaultChangerWindows()
	type answer struct {
		top []FlowDelta
		chg []FlowChange
	}
	ask := func(w Window) (a answer, err error) {
		if a.top, err = s.TopK(w, 10, false); err == nil {
			a.chg, err = s.HeavyChangers(older, newer, 10, true)
		}
		return a, err
	}
	want := make([]answer, len(windows))
	for i, w := range windows {
		var err error
		if want[i], err = ask(w); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := (g + i) % len(windows)
				got, err := ask(windows[j])
				if err != nil || !reflect.DeepEqual(got, want[j]) {
					t.Errorf("goroutine %d: window %+v answered differently from the serial run (%v)", g, windows[j], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestQueriesDuringAppends: a query reads the index as it stood when it
// began, without a copy, while appends add records past its end and roll
// segments under it; answers over windows the appends do not reach equal
// the answers from before the appends (run under -race).
func TestQueriesDuringAppends(t *testing.T) {
	s, last := diffStore(t, 7, 16<<10)
	windows := []Window{{From: 2, To: last}, {From: 3, To: 7}, {From: last, To: last}}
	want := make([][]FlowDelta, len(windows))
	for i, w := range windows {
		var err error
		if want[i], err = s.TopK(w, 10, false); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for e := last + 1; e <= last+40; e++ {
			if err := s.Append(e, epochRecords(e, 100), epochStats(e)); err != nil {
				t.Errorf("append epoch %d: %v", e, err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				w := windows[(g+i)%len(windows)]
				got, err := s.TopK(w, 10, false)
				if err != nil || !reflect.DeepEqual(got, want[(g+i)%len(windows)]) {
					t.Errorf("goroutine %d: window %+v answered differently during appends (%v)", g, w, err)
					return
				}
				if _, err := s.TopK(Window{}, 10, false); err != nil {
					t.Errorf("goroutine %d: latest-epoch top-k during appends: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.MaxEpoch != last+40 || st.AppendErrors != 0 {
		t.Fatalf("after the appends: max epoch %d (want %d), %d append errors", st.MaxEpoch, last+40, st.AppendErrors)
	}
}
