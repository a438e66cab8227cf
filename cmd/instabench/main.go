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
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"instameasure/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "instabench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig   = flag.String("fig", "", figHelp())
		scale = flag.String("scale", "default", "workload scale: small, default, large")
		seed  = flag.Uint64("seed", 0, "override workload seed (0 = scale default)")
	)
	flag.Parse()

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
	return nil
}

// figHelp lists the ids -fig accepts, each experiment by its short alias
// where it has one.
func figHelp() string {
	ids := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		ids[i] = cmp.Or(e.Alias, e.ID)
	}
	return "figure id to run (" + strings.Join(ids, ", ") + "); empty = all"
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
