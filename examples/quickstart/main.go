// Quickstart: measure a synthetic backbone workload with a single-core
// meter and print the ten biggest flows plus measurement statistics.
package main

import (
	"fmt"
	"log"

	"instameasure"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A CAIDA-like workload: 50k flows, ~1M packets, Zipf sizes.
	tr, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows:        50_000,
		TotalPackets: 1_000_000,
		Seed:         1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d packets, %d flows, %.2fs of simulated traffic\n\n",
		len(tr.Packets), tr.Flows(), float64(tr.Duration())/1e9)

	// Default meter: 128 KB FlowRegulator + 2^20-entry WSAF (33 MB DRAM).
	meter, err := instameasure.New(instameasure.Config{Seed: 42})
	if err != nil {
		return err
	}
	if _, err := meter.Run(tr.Source()); err != nil {
		return err
	}

	fmt.Println("top 10 flows by packets:")
	for i, rec := range meter.TopKPackets(10) {
		truth := tr.Truth(rec.Key)
		fmt.Printf("%2d. %-45s est %8.0f pkts (true %8d) %8.2f MB\n",
			i+1, rec.Key, rec.Pkts, truth.Pkts, rec.Bytes/1e6)
	}

	st := meter.Stats()
	fmt.Printf("\npackets processed:  %d\n", st.Packets)
	fmt.Printf("WSAF insertions:    %d (regulation rate %.3f%%)\n",
		st.WSAFInsertions, st.RegulationRate*100)
	fmt.Printf("active flows:       %d (WSAF load %.2f%%)\n",
		st.ActiveFlows, st.WSAFLoadFactor*100)
	fmt.Printf("memory:             %d KB sketch + %d MB WSAF\n",
		st.SketchMemoryBytes>>10, st.WSAFMemoryBytes>>20)
	return nil
}
