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

func run() error {
	var (
		pcapPath  = flag.String("pcap", "", "pcap capture file to measure")
		synth     = flag.Bool("synth", false, "measure a synthetic Zipf workload instead of a capture")
		flows     = flag.Int("flows", 100_000, "synthetic workload: number of flows")
		packets   = flag.Int("packets", 2_000_000, "synthetic workload: number of packets")
		seed      = flag.Uint64("seed", 0, "measurement and workload seed (0 = random per run; the chosen seed is printed)")
		sketchKB  = flag.Int("sketch-kb", 32, "L1 sketch memory in KB (total FlowRegulator = 4x)")
		wsafExp   = flag.Int("wsaf-exp", 20, "WSAF size as a power of two (20 = paper default)")
		hotCache  = flag.Int("hotcache", 0, "exact hot-flow cache entries in front of the WSAF (0 = off, 4096 typical)")
		workers   = flag.Int("workers", 1, "worker cores (1 = single-core meter)")
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

	cfg := instameasure.Config{
		SketchMemoryBytes: *sketchKB << 10,
		WSAFEntries:       1 << *wsafExp,
		HotCacheEntries:   *hotCache,
		Seed:              *seed,
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

	opts := meterOpts{
		topK:      *topK,
		hhPkts:    *hhPkts,
		hhBytes:   *hhBytes,
		epoch:     *epoch,
		interval:  *interval,
		snapshot:  *snapshot,
		exportTo:  *exportTo,
		site:      *site,
		metrics:   *metrics,
		store:     *storeDir,
		storeSync: *storeSyn,
	}
	var err error
	if *workers > 1 {
		err = runCluster(cfg, *workers, *batch, src, opts)
	} else {
		err = runMeter(cfg, src, opts)
	}
	if err != nil {
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

type meterOpts struct {
	topK      int
	hhPkts    float64
	hhBytes   float64
	epoch     int           // cut every N packets (0 = off)
	interval  time.Duration // cut every D of trace time (0 = off)
	snapshot  string
	exportTo  string
	site      string
	metrics   string
	store     string
	storeSync bool
}

// storeOptions maps the CLI flags to StoreOptions.
func (o meterOpts) storeOptions() instameasure.StoreOptions {
	opt := instameasure.StoreOptions{}
	if o.storeSync {
		opt.Sync = instameasure.StoreSyncEach
	}
	return opt
}

// serveMetrics starts the observability endpoint when addr is non-empty.
func serveMetrics(t *instameasure.Telemetry, addr string) (*instameasure.TelemetryServer, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := t.Serve(addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("metrics at %s/metrics (expvar at /debug/vars, pprof at /debug/pprof/, flight at /debug/flight, health at /healthz and /readyz)\n", srv.URL())
	return srv, nil
}

func runMeter(cfg instameasure.Config, src instameasure.PacketSource, opts meterOpts) error {
	meter, err := instameasure.New(cfg)
	if err != nil {
		return err
	}
	if opts.hhPkts > 0 || opts.hhBytes > 0 {
		err := meter.OnHeavyHitter(opts.hhPkts, opts.hhBytes, func(ev instameasure.HeavyHitterEvent) {
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

	srv, err := serveMetrics(meter.Telemetry(), opts.metrics)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
	}

	if opts.store != "" {
		fs, err := instameasure.OpenFlowStore(opts.store, opts.storeOptions())
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
		fmt.Printf("committing epochs to store %s\n", opts.store)
	}

	var exporter *instameasure.Exporter
	if opts.exportTo != "" {
		exporter, err = instameasure.DialCollector(opts.exportTo)
		if err != nil {
			return err
		}
		defer exporter.Close()
		if opts.site != "" {
			if err := exporter.WithSite(opts.site); err != nil {
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

	n, err := drain(meter, src, opts, exporter)
	if err != nil {
		return err
	}
	st := meter.Stats()
	fmt.Printf("\nprocessed %d packets (%.2f GB)\n", n, float64(st.Bytes)/1e9)
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

	printTop(os.Stdout, "packets", meter.TopKPackets(opts.topK))
	printTop(os.Stdout, "bytes", meter.TopKBytes(opts.topK))

	if opts.snapshot != "" {
		f, err := os.Create(opts.snapshot)
		if err != nil {
			return err
		}
		if err := meter.ExportSnapshot(f, int64(n)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote flow table snapshot to %s (%d flows)\n",
			opts.snapshot, st.ActiveFlows)
	}
	if exporter != nil {
		if err := exporter.ExportMeter(meter, -1); err != nil {
			return err
		}
		fmt.Printf("exported final flow table to %s\n", opts.exportTo)
	}
	return nil
}

// drain feeds the source through the meter, cutting epochs on either
// trigger — every opts.epoch packets and/or every opts.interval of trace
// time (capture timestamps), whichever fires first; both counters then
// restart from the cut. Each cut prints interim stats, exports to the
// collector, and commits a snapshot to the attached store. With a store
// attached, the final table is committed as one last epoch on EOF so a
// run's tail is never lost.
func drain(meter *instameasure.Meter, src instameasure.PacketSource, opts meterOpts, exporter *instameasure.Exporter) (uint64, error) {
	hasStore := meter.Store() != nil
	if opts.epoch <= 0 && opts.interval <= 0 && !hasStore {
		return meter.ProcessSource(src)
	}
	var n uint64
	var sincePkts uint64 // packets since the last cut
	var nextCut int64    // trace-time ns of the next interval cut (0 = unarmed)
	epochID := int64(0)

	cut := func() error {
		epochID++
		sincePkts = 0
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
			epochID, n, st.ActiveFlows, regulation*100, occupancy*100)
		if exporter != nil {
			if err := exporter.ExportMeter(meter, epochID); err != nil {
				return err
			}
		}
		if hasStore {
			if err := meter.CommitEpoch(epochID); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			// Commit whatever accumulated since the last cut as a final
			// epoch, so the stored history covers the whole run.
			if hasStore && sincePkts > 0 {
				meter.MarkEpochCut(epochID + 1)
				if err := meter.CommitEpoch(epochID + 1); err != nil {
					return n, err
				}
			}
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if opts.interval > 0 && nextCut == 0 {
			nextCut = p.TS + int64(opts.interval)
		}
		meter.Process(p)
		n++
		sincePkts++
		switch {
		case opts.epoch > 0 && sincePkts >= uint64(opts.epoch):
			if err := cut(); err != nil {
				return n, err
			}
			if opts.interval > 0 {
				nextCut = p.TS + int64(opts.interval)
			}
		case opts.interval > 0 && p.TS >= nextCut:
			if err := cut(); err != nil {
				return n, err
			}
			// Skip over idle gaps instead of cutting empty epochs.
			for nextCut <= p.TS {
				nextCut += int64(opts.interval)
			}
		}
	}
}

func runCluster(cfg instameasure.Config, workers, batch int, src instameasure.PacketSource, opts meterOpts) error {
	// Split the WSAF budget across workers to keep total memory fixed.
	cfg.WSAFEntries /= workers
	if cfg.WSAFEntries < 1024 {
		cfg.WSAFEntries = 1024
	}
	cluster, err := instameasure.NewCluster(instameasure.ClusterConfig{
		Meter:     cfg,
		Workers:   workers,
		BatchSize: batch,
	})
	if err != nil {
		return err
	}
	srv, err := serveMetrics(cluster.Telemetry(), opts.metrics)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		srv.RegisterHealth("pipeline", cluster.Saturated)
	}
	if opts.store != "" {
		fs, err := instameasure.OpenFlowStore(opts.store, opts.storeOptions())
		if err != nil {
			return err
		}
		defer fs.Close()
		cluster.AttachStore(fs)
		if srv != nil {
			srv.ServeFlows(fs)
			fmt.Printf("flow history at %s/flows/topk (timeline, changers, stats)\n", srv.URL())
		}
	}
	rep, err := cluster.Run(src)
	if err != nil {
		return err
	}
	if cluster.Store() != nil {
		// The cluster drains the whole source in one go; its history is a
		// single epoch holding the merged final table.
		cluster.MarkEpochCut(1)
		if err := cluster.CommitEpoch(1); err != nil {
			return err
		}
		fmt.Printf("committed merged flow table to store %s\n", opts.store)
	}
	fmt.Printf("\nprocessed %d packets at %.2f Mpps with %d workers\n",
		rep.Packets, rep.MPPS, workers)
	for w, n := range rep.PerWorker {
		fmt.Printf("  worker %d: %d packets\n", w, n)
	}
	fmt.Printf("cluster regulation rate %.3f%%\n\n", rep.RegulationRate*100)
	printTop(os.Stdout, "packets", cluster.TopKPackets(opts.topK))
	printTop(os.Stdout, "bytes", cluster.TopKBytes(opts.topK))

	if opts.snapshot != "" {
		f, err := os.Create(opts.snapshot)
		if err != nil {
			return err
		}
		if err := cluster.ExportSnapshot(f, int64(rep.Packets)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote merged flow table snapshot to %s\n", opts.snapshot)
	}
	return nil
}

func printTop(w io.Writer, metric string, recs []instameasure.FlowRecord) {
	fmt.Fprintf(w, "top %d flows by %s:\n", len(recs), metric)
	for i, rec := range recs {
		fmt.Fprintf(w, "%3d. %-48s %12.0f pkts %10.2f MB\n",
			i+1, rec.Key, rec.Pkts, rec.Bytes/1e6)
	}
	fmt.Fprintln(w)
}
