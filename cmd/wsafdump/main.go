// Command wsafdump inspects flow-table snapshot files written by
// instameasure's -snapshot flag or Meter.ExportSnapshot — and, with
// -store, queries an epoch store directory written by -store.
//
// Usage:
//
//	wsafdump flows.ims
//	wsafdump -top 50 -by bytes flows.ims
//	wsafdump -store ./history                        # summary + epoch list
//	wsafdump -store ./history -top 20 -by bytes      # windowed top-k
//	wsafdump -store ./history -from 3 -to 7 -top 10  # over epochs [3,7]
//	wsafdump -store ./history -timeline 1a2b3c4d5e6f7890
//	wsafdump -store ./history -changers 10
//	wsafdump -flight flight.json                     # re-render a saved flight dump
//	wsafdump -flight meter.json collector.json       # stitch two processes' dumps
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"instameasure"
	"instameasure/internal/flight"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wsafdump:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topK     = flag.Int("top", 20, "print the K largest flows")
		by       = flag.String("by", "packets", "rank by 'packets' or 'bytes'")
		storeDir = flag.String("store", "", "query an epoch store directory instead of a snapshot file")
		from     = flag.Int64("from", 0, "store query: window start epoch (0 = open)")
		to       = flag.Int64("to", 0, "store query: window end epoch (0 = open)")
		timeline = flag.String("timeline", "", "store query: per-epoch history of one flow (16-hex flow id)")
		changers = flag.Int("changers", 0, "store query: print the K heaviest changers between the last two epochs")
		flightTL = flag.Bool("flight", false, "treat FILE args as saved flight-recorder JSON dumps (from /debug/flight or instameasure -flight-dump) and print the merged text timeline")
	)
	flag.Parse()
	if *by != "packets" && *by != "bytes" {
		return fmt.Errorf("unknown -by %q (want packets or bytes)", *by)
	}
	if *flightTL {
		if flag.NArg() == 0 {
			return errors.New("-flight needs one or more dump files (the JSON from /debug/flight or -flight-dump)")
		}
		return runFlight(flag.Args())
	}
	if *storeDir != "" {
		if flag.NArg() != 0 {
			return errors.New("-store takes no file argument")
		}
		return runStore(*storeDir, *topK, *by == "bytes", instameasure.EpochWindow{From: *from, To: *to}, *timeline, *changers)
	}
	if flag.NArg() != 1 {
		return errors.New("usage: wsafdump [-top K] [-by packets|bytes] FILE | wsafdump -store DIR [...]")
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	info, err := instameasure.ReadSnapshotDetail(f)
	if err != nil {
		return err
	}
	flows, epoch := info.Records, info.Epoch

	var totalPkts, totalBytes float64
	minTS, maxTS := int64(1<<62), int64(0)
	for _, rec := range flows {
		totalPkts += rec.Pkts
		totalBytes += rec.Bytes
		if rec.FirstSeen < minTS {
			minTS = rec.FirstSeen
		}
		if rec.LastUpdate > maxTS {
			maxTS = rec.LastUpdate
		}
	}

	fmt.Printf("%s: epoch %d, %d flows\n", flag.Arg(0), epoch, len(flows))
	if info.HasStats {
		st := info.Stats
		fmt.Printf("WSAF activity: %d updates, %d inserts, %d expirations, %d evictions, %d drops\n",
			st.Updates, st.Inserts, st.Expirations, st.Evictions, st.Drops)
	}
	if len(flows) == 0 {
		return nil
	}
	fmt.Printf("totals: %.0f packets, %.2f MB\n", totalPkts, totalBytes/1e6)
	fmt.Printf("window: %.3fs of trace time\n\n", float64(maxTS-minTS)/1e9)

	metric := func(r *instameasure.FlowRecord) float64 { return r.Pkts }
	if *by == "bytes" {
		metric = func(r *instameasure.FlowRecord) float64 { return r.Bytes }
	}
	sort.Slice(flows, func(i, j int) bool {
		return metric(&flows[i]) > metric(&flows[j])
	})
	if *topK < len(flows) {
		flows = flows[:*topK]
	}
	fmt.Printf("top %d flows by %s:\n", len(flows), *by)
	for i, rec := range flows {
		fmt.Printf("%3d. %-48s %12.0f pkts %10.2f MB\n",
			i+1, rec.Key, rec.Pkts, rec.Bytes/1e6)
	}
	return nil
}

// runFlight re-renders saved flight-recorder dumps offline. Several files
// merge into one stream keyed by epoch id, so a meter-side dump and a
// collector-side dump reconstruct the cross-process cut→commit timeline.
func runFlight(paths []string) error {
	dumps := make([]flight.Dump, 0, len(paths))
	var merged flight.Dump
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var d flight.Dump
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("%s: not a flight dump: %w", path, err)
		}
		if d.TakenUnixNS > merged.TakenUnixNS {
			merged.TakenUnixNS = d.TakenUnixNS
		}
		// Keep the SLO view with the most observed epochs — typically the
		// store-side process, which sees the commits.
		if d.SLO.Epochs > merged.SLO.Epochs {
			merged.SLO = d.SLO
		}
		dumps = append(dumps, d)
	}
	// JSON carries stage names, not the internal Stage codes; MergeEvents
	// re-parses them and sorts, then the epochs are rebuilt from scratch.
	merged.Events = flight.MergeEvents(dumps...)
	merged.Epochs = flight.Reconstruct(merged.Events)
	return flight.WriteTimeline(os.Stdout, merged)
}

// runStore answers queries over an epoch store directory.
func runStore(dir string, topK int, byBytes bool, win instameasure.EpochWindow, timeline string, changers int) error {
	fs, err := instameasure.OpenFlowStore(dir, instameasure.StoreOptions{})
	if err != nil {
		return err
	}
	defer fs.Close()

	switch {
	case timeline != "":
		id, err := strconv.ParseUint(timeline, 16, 64)
		if err != nil {
			return fmt.Errorf("bad -timeline flow id %q (want 16 hex digits)", timeline)
		}
		points, key, err := fs.TimelineByHash(id)
		if err != nil {
			return err
		}
		if len(points) == 0 {
			fmt.Printf("no flow with id %s in the store\n", timeline)
			return nil
		}
		fmt.Printf("flow %s (id %s), %d epochs:\n", key, timeline, len(points))
		for _, p := range points {
			fmt.Printf("  epoch %6d: %12.0f pkts %10.2f MB\n", p.Epoch, p.Pkts, p.Bytes/1e6)
		}
		return nil

	case changers > 0:
		older, newer, ok := fs.DefaultChangerWindows()
		if !ok {
			return errors.New("heavy changers need at least two stored epochs")
		}
		by := "packets"
		if byBytes {
			by = "bytes"
		}
		changes, err := fs.HeavyChangers(older, newer, changers, byBytes)
		if err != nil {
			return err
		}
		fmt.Printf("top %d changers by %s, epoch %d vs %d:\n", len(changes), by, newer.From, older.From)
		for i, c := range changes {
			fmt.Printf("%3d. %-48s %+12.0f pkts %+10.2f MB  (pkts %.0f→%.0f)\n",
				i+1, c.Key, c.Pkts, c.Bytes/1e6, c.OlderPkts, c.NewerPkts)
		}
		return nil

	default:
		st := fs.Stats()
		fmt.Printf("%s: %d segments, %d records, %d epochs [%d..%d], %d flows, %.2f MB\n",
			dir, st.Segments, st.Records, st.Epochs, st.MinEpoch, st.MaxEpoch, st.Flows, float64(st.Bytes)/1e6)
		if st.Truncations > 0 {
			fmt.Printf("recovered %d torn tails\n", st.Truncations)
		}
		by := "packets"
		if byBytes {
			by = "bytes"
		}
		flows, err := fs.TopK(win, topK, byBytes)
		if err != nil {
			return err
		}
		if win == (instameasure.EpochWindow{}) {
			fmt.Printf("\ntop %d flows by %s (all history):\n", len(flows), by)
		} else {
			fmt.Printf("\ntop %d flows by %s in epochs [%d..%d]:\n", len(flows), by, win.From, win.To)
		}
		for i, f := range flows {
			fmt.Printf("%3d. %-48s %12.0f pkts %10.2f MB  id %016x\n",
				i+1, f.Key, f.Pkts, f.Bytes/1e6, f.Key.Hash64(0))
		}
		return nil
	}
}
