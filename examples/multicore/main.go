// Multicore: run the paper's multi-core measurement system — a Meter on four
// workers sharded by source-IP popcount, then merge per-worker results
// into a global Top-K and compare against ground truth.
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
	tr, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows:        80_000,
		TotalPackets: 1_500_000,
		Seed:         3,
	})
	if err != nil {
		return err
	}

	meter, err := instameasure.NewCluster(instameasure.ClusterConfig{
		Workers: 4,
		Shard:   instameasure.ShardByPopcount,
		Meter: instameasure.Config{
			SketchMemoryBytes: 32 << 10,
			WSAFEntries:       1 << 18, // per worker: 4×2^18 = 2^20 total
			Seed:              11,
		},
	})
	if err != nil {
		return err
	}

	rep, err := meter.Run(tr.Source())
	if err != nil {
		return err
	}

	fmt.Printf("processed %d packets (%.1f GB) at %.2f Mpps across %d workers\n",
		rep.Packets, float64(rep.Bytes)/1e9, rep.MPPS, len(rep.PerWorker))
	for w, n := range rep.PerWorker {
		fmt.Printf("  worker %d: %8d packets (%.1f%%)\n",
			w, n, float64(n)/float64(rep.Packets)*100)
	}
	fmt.Printf("cluster regulation rate: %.3f%% of packets reached a WSAF\n\n",
		rep.RegulationRate*100)

	fmt.Println("cluster-wide top 10 flows by bytes:")
	hits := 0
	truthTop := topTruthKeys(tr, 10)
	for i, rec := range meter.TopKBytes(10) {
		inTruth := ""
		if truthTop[rec.Key] {
			inTruth = "(true top-10)"
			hits++
		}
		fmt.Printf("%2d. %-45s %9.2f MB %s\n", i+1, rec.Key, rec.Bytes/1e6, inTruth)
	}
	fmt.Printf("\ntop-10 byte recall vs ground truth: %d/10\n", hits)
	return nil
}

func topTruthKeys(tr *instameasure.Trace, k int) map[instameasure.FlowKey]bool {
	keys := tr.TopTruth(k, func(ft *instameasure.FlowTruth) float64 {
		return float64(ft.Bytes)
	})
	out := make(map[instameasure.FlowKey]bool, len(keys))
	for _, key := range keys {
		out[key] = true
	}
	return out
}
