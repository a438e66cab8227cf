// Command instameasure measures per-flow traffic from a pcap capture file
// or a generated synthetic workload, and reports flow counts, Top-K lists,
// and heavy hitters — the measurement device of the paper, as a CLI.
//
// Usage:
//
//	instameasure -pcap trace.pcap -top 20
//	instameasure -synth -flows 100000 -packets 2000000 -hh-pkts 10000
//	instameasure -pcap trace.pcap -workers 4 -sketch-kb 128
//	cat trace.pcap | instameasure -pcap - -stream -epoch 1000000
//	instameasure -pcap trace.pcap -snapshot flows.ims -export host:port
//	instameasure -collect :9000 -ddos-sources 1000 -metrics :8080
//	instameasure -pcap trace.pcap -epoch 100000 -export host:9000 -site edge-1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"instameasure"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "instameasure:", err)
		os.Exit(1)
	}
}

// The command's flags; run parses them.
var (
	pcapPath  = flag.String("pcap", "", "pcap capture file to measure")
	synth     = flag.Bool("synth", false, "measure a synthetic Zipf workload instead of a capture")
	flows     = flag.Int("flows", 100_000, "synthetic workload: number of flows")
	packets   = flag.Int("packets", 2_000_000, "synthetic workload: number of packets")
	seed      = flag.Uint64("seed", 0, "measurement and workload seed (0 = random per run; the chosen seed is printed)")
	sketchKB  = flag.Int("sketch-kb", 32, "L1 sketch memory in KB (total FlowRegulator = 4x)")
	wsafExp   = flag.Int("wsaf-exp", 20, "WSAF size as a power of two (20 = paper default)")
	hotCache  = flag.Int("hotcache", 0, "exact hot-flow cache entries in front of the WSAF (0 = off, 4096 typical)")
	workers   = flag.Int("workers", 1, "worker cores, each with its own engine over its share of -wsaf-exp")
	batch     = flag.Int("batch", 256, "burst size packets are read, exchanged and processed in")
	topK      = flag.Int("top", 10, "print the K largest flows by packets and bytes")
	hhPkts    = flag.Float64("hh-pkts", 0, "heavy-hitter packet threshold (0 = off)")
	hhBytes   = flag.Float64("hh-bytes", 0, "heavy-hitter byte threshold (0 = off)")
	stream    = flag.Bool("stream", false, "decode the pcap incrementally (constant memory; '-' reads stdin)")
	epoch     = flag.Int("epoch", 0, "cut an epoch every N packets (0 = off): print interim stats, export, commit to -store")
	interval  = flag.Duration("epoch-interval", 0, "cut an epoch every D of trace time (capture timestamps), e.g. 500ms; combines with -epoch — whichever fires first cuts")
	snapshot  = flag.String("snapshot", "", "write the final flow table to this snapshot file")
	exportTo  = flag.String("export", "", "export each epoch's flow table to a collector at host:port")
	site      = flag.String("site", "", "site ID stamped on exported batches (1-64 printable ASCII; requires -export)")
	collect   = flag.String("collect", "", "run a fleet collector on host:port instead of measuring (see -ddos-sources, -spread-dsts, -scan-ports, -metrics)")
	ddosSrc   = flag.Float64("ddos-sources", 0, "collector: alert when one destination sees this many distinct sources per window (0 = off)")
	spread    = flag.Float64("spread-dsts", 0, "collector: alert when one source contacts this many distinct destinations per window (0 = off)")
	scan      = flag.Float64("scan-ports", 0, "collector: alert when one source probes this many distinct ports per window (0 = off)")
	metrics   = flag.String("metrics", "", "serve /metrics, /debug/vars, /debug/pprof, /debug/flight, /healthz and /readyz on host:port")
	storeDir  = flag.String("store", "", "append each epoch's flow table to the epoch store in this directory (query with /flows or wsafdump -store)")
	storeSyn  = flag.Bool("store-sync", false, "fsync the store after every epoch append")
	sloBudget = flag.Duration("slo-budget", 0, "detection-delay budget: p99 epoch cut-to-commit latency the run promises (0 = no SLO); burn state is the instameasure_slo_burn gauge")
	flightOut = flag.String("flight-dump", "", "write the flight recorder's JSON dump to this file at exit (re-render with wsafdump -flight)")
)

func run() error {
	flag.Parse()

	if *sloBudget > 0 {
		instameasure.SetDetectionDelayBudget(*sloBudget)
	}

	if *collect != "" {
		return runCollect(*collect, *metrics, instameasure.FleetConfig{
			DDoSSources:  *ddosSrc,
			SpreaderDsts: *spread,
			ScanPorts:    *scan,
		})
	}
	if *site != "" && *exportTo == "" {
		return errors.New("-site requires -export")
	}

	// Resolve the seed here rather than letting the library draw one:
	// it also drives the synthetic workload, and printing it makes any
	// run reproducible with an explicit -seed.
	if *seed == 0 {
		*seed = instameasure.RandomSeed()
		fmt.Printf("seed %d (pass -seed %d to reproduce this run)\n", *seed, *seed)
	}

	// Split the WSAF budget across workers to keep total memory within it:
	// each worker's share rounds down to a power of two, 1024 at least.
	*workers = max(*workers, 1)
	entries := 1 << *wsafExp
	for entries > 1024 && entries > (1<<*wsafExp) / *workers {
		entries >>= 1
	}
	cfg := instameasure.ClusterConfig{
		Meter: instameasure.Config{
			SketchMemoryBytes: *sketchKB << 10,
			WSAFEntries:       entries,
			HotCacheEntries:   *hotCache,
			Seed:              *seed,
		},
		Workers:   *workers,
		BatchSize: *batch,
	}

	var (
		src      instameasure.PacketSource
		streamed *instameasure.PcapStream
	)
	switch {
	case *pcapPath != "":
		var in io.Reader
		if *pcapPath == "-" {
			in = os.Stdin
		} else {
			f, err := os.Open(*pcapPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		if *stream || *pcapPath == "-" {
			s, err := instameasure.OpenPcapStream(in)
			if err != nil {
				return fmt.Errorf("open %s: %w", *pcapPath, err)
			}
			fmt.Printf("streaming %s\n", *pcapPath)
			src, streamed = s, s
			break
		}
		tr, err := instameasure.ReadPcap(in)
		if err != nil {
			return fmt.Errorf("read %s: %w", *pcapPath, err)
		}
		// No flow count here: it would build the ground truth a meter run
		// never reads; the report below prints the active flows.
		fmt.Printf("loaded %s: %d packets, %d frames skipped (not IP, no L4 ports, or truncated)\n",
			*pcapPath, len(tr.Packets), tr.Skipped)
		src = tr.Source()
	case *synth:
		tr, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
			Flows:        *flows,
			TotalPackets: *packets,
			Seed:         *seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("generated synthetic trace: %d packets, %d flows\n", len(tr.Packets), tr.Flows())
		src = tr.Source()
	default:
		return errors.New("need -pcap FILE or -synth (see -h)")
	}

	if err := runMeter(cfg, src); err != nil {
		return err
	}
	if streamed != nil {
		fmt.Printf("streamed %s: %d frames skipped (not IP, no L4 ports, or truncated)\n",
			*pcapPath, streamed.Skipped)
	}
	return writeFlightDump(*flightOut)
}

// runCollect runs a standalone fleet collector: meters export to it
// (instameasure -export HOST:PORT -site NAME), it aggregates per-site
// and network-wide views, runs the configured streaming detectors, and
// serves /fleet/* plus /metrics when -metrics is set. Runs until
// SIGINT/SIGTERM.
func runCollect(addr, metricsAddr string, cfg instameasure.FleetConfig) error {
	cfg.OnAlert = func(al instameasure.FleetAlert) {
		fmt.Printf("ALERT #%d %s host=%s estimate=%.0f threshold=%.0f sites=%v epoch=%d\n",
			al.Seq, al.Kind, al.Host, al.Estimate, al.Threshold, al.Sites, al.Epoch)
	}
	coll, err := instameasure.NewCollector(addr, nil)
	if err != nil {
		return err
	}
	defer coll.Close()
	fl, err := coll.EnableFleet(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("fleet collector listening on %s\n", coll.Addr())
	if metricsAddr != "" {
		tel := instameasure.NewTelemetry()
		coll.Instrument(tel)
		srv, err := tel.Serve(metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		srv.ServeFleet(fl)
		fmt.Printf("fleet API at %s/fleet/topk (sites, changers, alerts, stats; metrics at /metrics)\n", srv.URL())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := fl.Stats()
	fmt.Printf("\nfleet: %d sites, %d flows, %d batches, %d records, %d alerts\n",
		st.Sites, st.Flows, st.Batches, st.Records, st.Alerts)
	return nil
}

// writeFlightDump saves the flight recorder's state as JSON, for offline
// re-rendering with wsafdump -flight.
func writeFlightDump(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(instameasure.FlightSnapshot()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote flight dump to %s\n", path)
	return nil
}

// runMeter measures src on a meter of cfg.Workers workers, cutting epochs,
// exporting and committing as the flags ask, and prints the final report.
func runMeter(cfg instameasure.ClusterConfig, src instameasure.PacketSource) error {
	meter, err := instameasure.NewCluster(cfg)
	if err != nil {
		return err
	}
	if *hhPkts > 0 || *hhBytes > 0 {
		// With several workers the callback runs on each flow's worker,
		// concurrently; every line is one write.
		err := meter.OnHeavyHitter(*hhPkts, *hhBytes, func(ev instameasure.HeavyHitterEvent) {
			kind := "packet"
			if ev.ByBytes {
				kind = "byte"
			}
			fmt.Printf("HEAVY HITTER (%s) t=%.3fms %s est %.0f pkts / %.2f MB\n",
				kind, float64(ev.TS)/1e6, ev.Key, ev.Pkts, ev.Bytes/1e6)
		})
		if err != nil {
			return err
		}
	}

	var srv *instameasure.TelemetryServer
	if *metrics != "" {
		if srv, err = meter.Telemetry().Serve(*metrics); err != nil {
			return err
		}
		defer srv.Close()
		srv.RegisterHealth("pipeline", meter.Saturated)
		fmt.Printf("metrics at %s/metrics (expvar at /debug/vars, pprof at /debug/pprof/, flight at /debug/flight, health at /healthz and /readyz)\n", srv.URL())
	}

	if *storeDir != "" {
		opt := instameasure.StoreOptions{}
		if *storeSyn {
			opt.Sync = instameasure.StoreSyncEach
		}
		fs, err := instameasure.OpenFlowStore(*storeDir, opt)
		if err != nil {
			return err
		}
		defer fs.Close()
		meter.AttachStore(fs)
		if srv != nil {
			srv.ServeFlows(fs) // also instruments the store on the registry
			fmt.Printf("flow history at %s/flows/topk (timeline, changers, stats)\n", srv.URL())
		} else {
			fs.Instrument(meter.Telemetry())
		}
		fmt.Printf("committing epochs to store %s\n", *storeDir)
	}

	var exporter *instameasure.Exporter
	if *exportTo != "" {
		exporter, err = instameasure.DialCollector(*exportTo)
		if err != nil {
			return err
		}
		defer exporter.Close()
		if *site != "" {
			if err := exporter.WithSite(*site); err != nil {
				return err
			}
		}
		exporter.Instrument(meter.Telemetry())
		if srv != nil {
			exp := exporter
			srv.RegisterHealth("exporter", func() error {
				if !exp.Connected() {
					return errors.New("collector connection down")
				}
				return nil
			})
		}
	}

	start := time.Now()
	perWorker, err := drain(meter, src, exporter)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := meter.Stats()
	fmt.Printf("\nprocessed %d packets (%.2f GB) at %.2f Mpps\n",
		st.Packets, float64(st.Bytes)/1e9, float64(st.Packets)/elapsed.Seconds()/1e6)
	if len(perWorker) > 1 {
		for w, n := range perWorker {
			fmt.Printf("  worker %d: %d packets\n", w, n)
		}
	}
	fmt.Printf("regulation rate %.3f%% | active flows %d | WSAF load %.2f%%\n",
		st.RegulationRate*100, st.ActiveFlows, st.WSAFLoadFactor*100)
	fmt.Printf("WSAF churn: %d evictions, %d expirations, %d drops\n",
		st.WSAFEvictions, st.WSAFExpirations, st.WSAFDrops)
	if st.HotCacheHits > 0 || st.HotCachePromotions > 0 {
		fmt.Printf("hot cache: %.1f%% hit rate, %d promotions, %d demotions\n",
			st.HotCacheHitRate*100, st.HotCachePromotions, st.HotCacheDemotions)
	}
	fmt.Printf("memory: %d KB sketch + %d MB WSAF\n\n",
		st.SketchMemoryBytes>>10, st.WSAFMemoryBytes>>20)

	printTop(os.Stdout, "packets", meter.TopKPackets(*topK))
	printTop(os.Stdout, "bytes", meter.TopKBytes(*topK))

	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			return err
		}
		if err := meter.ExportSnapshot(f, int64(st.Packets)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote flow table snapshot to %s (%d flows)\n",
			*snapshot, st.ActiveFlows)
	}
	if exporter != nil {
		if err := exporter.ExportMeter(meter, -1); err != nil {
			return err
		}
		fmt.Printf("exported final flow table to %s\n", *exportTo)
	}
	return nil
}

// drain runs the source through the meter an epoch at a time, at any
// worker count, and returns the packets each worker processed. Each Run
// reads a view of the source that ends at the next cut, and the end of
// the Run is the barrier at which every worker's table is cut together.
// Each cut prints interim stats, exports to the collector, and commits to
// the attached store. With a store attached, the table is committed once
// more on EOF, as a final epoch, so a run's tail is never lost. Without
// cut triggers the whole source is one Run.
func drain(meter *instameasure.Meter, src instameasure.PacketSource, exporter *instameasure.Exporter) ([]uint64, error) {
	view := &epochView{src: src, every: uint64(max(*epoch, 0)), interval: int64(*interval)}
	in := src
	if *epoch > 0 || *interval > 0 {
		in = view
	}
	var perWorker []uint64
	for epochID := int64(1); ; epochID++ {
		rep, err := meter.Run(in)
		if err != nil {
			return perWorker, err
		}
		if perWorker == nil {
			perWorker = make([]uint64, len(rep.PerWorker))
		}
		for w, k := range rep.PerWorker {
			perWorker[w] += k
		}
		if !view.cut {
			if meter.Store() == nil || rep.Packets == 0 {
				return perWorker, nil
			}
			meter.MarkEpochCut(epochID)
			return perWorker, meter.CommitEpoch(epochID)
		}
		view.cut = false
		// Open the epoch's detection-delay interval in the flight recorder
		// before the export/commit pipeline starts.
		meter.MarkEpochCut(epochID)
		st := meter.Stats()
		// Interim ratios read back from the live telemetry registry —
		// the same series a Prometheus scrape of -metrics would see.
		tm := meter.Telemetry()
		pkts := tm.Value("instameasure_packets_total")
		regulation := 0.0
		if pkts > 0 {
			regulation = tm.Value("instameasure_wsaf_delegations_total") / pkts
		}
		occupancy := 0.0
		if capacity := tm.Value("instameasure_wsaf_capacity_entries"); capacity > 0 {
			occupancy = tm.Value("instameasure_wsaf_occupancy") / capacity
		}
		fmt.Printf("epoch %d: %d packets, %d flows, regulation %.3f%%, WSAF occupancy %.2f%%\n",
			epochID, st.Packets, st.ActiveFlows, regulation*100, occupancy*100)
		if exporter != nil {
			if err := exporter.ExportMeter(meter, epochID); err != nil {
				return perWorker, err
			}
		}
		if meter.Store() != nil {
			if err := meter.CommitEpoch(epochID); err != nil {
				return perWorker, err
			}
		}
	}
}

// epochView is src up to the next epoch cut: it hands out src's packets up
// to and including the one that closes the epoch — the every-th packet
// since the last cut, or the first at or past the next interval boundary
// of trace time, whichever comes first — and then reports io.EOF until cut
// is cleared. Both triggers restart from the cut, and an interval cut
// skips idle gaps rather than cutting empty epochs. The tail of a burst
// read across the cut is held for the next epoch.
type epochView struct {
	src      instameasure.PacketSource
	every    uint64 // cut after this many packets (0 = off)
	interval int64  // cut every interval ns of trace time (0 = off)
	since    uint64 // packets since the last cut
	nextCut  int64  // trace time of the next interval cut (0 = unarmed)
	cut      bool   // the view ended at a cut, not at src's end
	buf      []instameasure.Packet
	held     []instameasure.Packet // read from src, not yet handed out
}

func (v *epochView) NextBatch(out []instameasure.Packet) (int, error) {
	if v.cut {
		return 0, io.EOF
	}
	if len(v.held) == 0 {
		if len(v.buf) < len(out) {
			v.buf = make([]instameasure.Packet, len(out))
		}
		k, err := v.src.NextBatch(v.buf[:len(out)])
		if k == 0 {
			return 0, err
		}
		v.held = v.buf[:k]
	}
	n := 0
	for n < len(out) && n < len(v.held) && !v.cut {
		out[n] = v.held[n]
		v.cut = v.closes(out[n].TS)
		n++
	}
	v.held = v.held[n:]
	return n, nil
}

// closes counts a packet stamped ts into the epoch and reports whether it
// is the one that closes it.
func (v *epochView) closes(ts int64) bool {
	if v.interval > 0 && v.nextCut == 0 {
		v.nextCut = ts + v.interval
	}
	v.since++
	switch {
	case v.every > 0 && v.since >= v.every:
		if v.interval > 0 {
			v.nextCut = ts + v.interval
		}
	case v.interval > 0 && ts >= v.nextCut:
		for v.nextCut <= ts {
			v.nextCut += v.interval
		}
	default:
		return false
	}
	v.since = 0
	return true
}

func printTop(w io.Writer, metric string, recs []instameasure.FlowRecord) {
	fmt.Fprintf(w, "top %d flows by %s:\n", len(recs), metric)
	for i, rec := range recs {
		fmt.Fprintf(w, "%3d. %-48s %12.0f pkts %10.2f MB\n",
			i+1, rec.Key, rec.Pkts, rec.Bytes/1e6)
	}
	fmt.Fprintln(w)
}
