// Command instabench regenerates every table and figure of the paper's
// evaluation section as text reports. By default it runs all experiments
// at the default scale; use -fig to select one and -scale to trade
// fidelity for runtime.
//
// Usage:
//
//	instabench                 # all figures, default scale
//	instabench -fig 9b         # one figure
//	instabench -scale small    # quick pass
//	instabench -scale large    # closer to the paper's flow/packet ratio
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"instameasure/internal/experiments"
	"instameasure/internal/flight"
	"instameasure/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "instabench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig = flag.String("fig", "", "figure id to run (1, 6, 7, 8a, 8b, 8c, 9a, 9b, 10, 11, 12, 13, 14, "+
			"csm, iblt, deleg, evict, probe, shard, apps, onset, layers, hotcache, oracle, fleet); empty = all")
		scale    = flag.String("scale", "default", "workload scale: small, default, large")
		seed     = flag.Uint64("seed", 0, "override workload seed (0 = scale default)")
		metrics  = flag.String("metrics", "", "serve /metrics, /debug/vars, /debug/pprof, /debug/flight and /healthz on host:port while benchmarking")
		flightTL = flag.Bool("flight", false, "print the flight recorder's text timeline after the run (sampled hot-path spans from every experiment engine)")
	)
	flag.Parse()

	if *metrics != "" {
		// Runtime gauges plus pprof: profile a long experiment run live.
		// The experiment engines record into the process-wide flight
		// recorder, so /debug/flight shows their sampled spans too.
		reg := telemetry.NewRegistry("instameasure", 1)
		telemetry.RegisterRuntimeMetrics(reg)
		srv, err := telemetry.NewServer(*metrics, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		health := flight.NewHealth()
		srv.Handle("/debug/flight", flight.NewHandler(flight.Default()))
		srv.Handle("/healthz", health.LiveHandler())
		srv.Handle("/readyz", health.ReadyHandler())
		fmt.Printf("metrics at http://%s/metrics (pprof at /debug/pprof/, flight at /debug/flight)\n", srv.Addr())
	}

	s, err := pickScale(*scale)
	if err != nil {
		return err
	}
	if *seed != 0 {
		s.Seed = *seed
	}

	fmt.Printf("InstaMeasure benchmark harness — scale %q: %d flows / %d packets (CAIDA-like), %.0fh / %d packets (campus-like), seed %d\n\n",
		*scale, s.Flows, s.Packets, s.DiurnalHours, s.DiurnalPackets, s.Seed)

	start := time.Now()
	if *fig != "" {
		rep, err := experiments.ByID(*fig, s)
		if err != nil {
			return err
		}
		rep.Print(os.Stdout)
	} else {
		reports, err := experiments.All(s)
		if err != nil {
			return err
		}
		for _, rep := range reports {
			rep.Print(os.Stdout)
		}
	}
	fmt.Printf("total time: %s\n", time.Since(start).Round(time.Millisecond))
	if *flightTL {
		fmt.Println()
		if err := flight.WriteTimeline(os.Stdout, flight.Snapshot(flight.Default())); err != nil {
			return err
		}
	}
	return nil
}

func pickScale(name string) (experiments.Scale, error) {
	switch name {
	case "small":
		return experiments.ScaleSmall, nil
	case "default":
		return experiments.ScaleDefault, nil
	case "large":
		return experiments.ScaleLarge, nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q (want small, default, large)", name)
	}
}
