// Anomaly: run the WSAF-backed anomaly applications the paper names
// (Section II) over a workload containing a port scanner and a DDoS
// attack: SuperSpreader detection, DDoS victim detection, and flow-size
// entropy as a concentration signal.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"instameasure"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	background, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows:        20_000,
		TotalPackets: 300_000,
		Seed:         21,
	})
	if err != nil {
		return err
	}

	// Overlay a port scanner: one source probing 2000 distinct
	// destinations, one packet each.
	const scanner = 0xC6336401 // 198.51.100.1
	scanPkts := make([]instameasure.Packet, 0, 2000)
	for i := 0; i < 2000; i++ {
		scanPkts = append(scanPkts, instameasure.Packet{
			Key: instameasure.V4Key(scanner, 0x0A000000+uint32(i), 55555,
				uint16(i%1024)+1, instameasure.ProtoTCP),
			Len: 60,
			TS:  int64(i) * 100_000, // 10 kpps probe rate
		})
	}

	// Overlay a DDoS: 3000 distinct sources flooding one victim.
	const victim = 0xCB007101 // 203.0.113.1
	ddosPkts := make([]instameasure.Packet, 0, 9000)
	for i := 0; i < 9000; i++ {
		ddosPkts = append(ddosPkts, instameasure.Packet{
			Key: instameasure.V4Key(0x20000000+uint32(i%3000), victim,
				uint16(i%60000)+1, 80, instameasure.ProtoUDP),
			Len: 1200,
			TS:  int64(i) * 20_000,
		})
	}

	tr := mergeAll(background, scanPkts, ddosPkts)
	fmt.Fprintf(w, "workload: %d packets, %d flows (scanner + 3000-bot DDoS overlaid)\n\n",
		len(tr.Packets), tr.Flows())

	meter, err := instameasure.New(instameasure.Config{Seed: 33})
	if err != nil {
		return err
	}
	spreader, err := instameasure.NewSuperSpreaderDetector(instameasure.SpreadConfig{Threshold: 500})
	if err != nil {
		return err
	}
	ddos, err := instameasure.NewDDoSDetector(instameasure.SpreadConfig{Threshold: 1000})
	if err != nil {
		return err
	}

	for _, p := range tr.Packets {
		meter.Process(p)
		spreader.Observe(p)
		ddos.Observe(p)
	}

	fmt.Fprintln(w, "SuperSpreaders (sources contacting ≥500 distinct destination addresses):")
	for _, r := range spreader.SuperSpreaders() {
		fmt.Fprintf(w, "  %s — ~%.0f destinations, flagged at t=%.1fms\n",
			r.Addr, r.DistinctEst, float64(r.FirstFlagged)/1e6)
	}

	fmt.Fprintln(w, "\nDDoS victims (destinations hit by ≥1000 distinct sources):")
	for _, r := range ddos.Victims() {
		fmt.Fprintf(w, "  %s — ~%.0f sources, flagged at t=%.1fms\n",
			r.Addr, r.DistinctEst, float64(r.FirstFlagged)/1e6)
	}

	fmt.Fprintf(w, "\nflow-size entropy of the WSAF: %.2f bits (normalized %.3f)\n",
		meter.FlowEntropy(), meter.NormalizedFlowEntropy())
	fmt.Fprintln(w, "a concentration attack pushes normalized entropy down; a scan pushes it up")
	return nil
}

func mergeAll(base *instameasure.Trace, extra ...[]instameasure.Packet) *instameasure.Trace {
	pkts := append([]instameasure.Packet(nil), base.Packets...)
	for _, e := range extra {
		pkts = append(pkts, e...)
	}
	return instameasure.NewTraceFromPackets(pkts)
}
