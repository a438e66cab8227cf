package instameasure_test

import (
	"bytes"
	"fmt"

	"instameasure"
)

// ExampleNew measures a small deterministic workload and reports totals.
func ExampleNew() {
	tr, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows: 1_000, TotalPackets: 50_000, Seed: 7,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	meter, err := instameasure.New(instameasure.Config{Seed: 42})
	if err != nil {
		fmt.Println(err)
		return
	}
	rep, err := meter.Run(tr.Source())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("packets: %d\n", rep.Packets)
	fmt.Printf("flows in trace: %d\n", tr.Flows())
	// Output:
	// packets: 50000
	// flows in trace: 1000
}

// ExampleMeter_OnHeavyHitter detects an injected high-rate flow inline.
func ExampleMeter_OnHeavyHitter() {
	attack := instameasure.V4Key(0xC0A80001, 0x08080808, 4444, 53, instameasure.ProtoUDP)
	tr, err := instameasure.InjectFlow(nil, attack, 100_000, 0, 1e9, 1000, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	meter, err := instameasure.New(instameasure.Config{Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := meter.OnHeavyHitter(5_000, 0, func(ev instameasure.HeavyHitterEvent) {
		fmt.Printf("heavy hitter: %v\n", ev.Key)
	}); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := meter.Run(tr.Source()); err != nil {
		fmt.Println(err)
		return
	}
	// Output:
	// heavy hitter: udp 192.168.0.1:4444->8.8.8.8:53
}

// ExampleMeter_ExportSnapshot archives a flow table and reads it back.
func ExampleMeter_ExportSnapshot() {
	tr, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows: 500, TotalPackets: 30_000, Seed: 9,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	meter, err := instameasure.New(instameasure.Config{Seed: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := meter.Run(tr.Source()); err != nil {
		fmt.Println(err)
		return
	}

	var buf bytes.Buffer
	if err := meter.ExportSnapshot(&buf, 1); err != nil {
		fmt.Println(err)
		return
	}
	flows, epoch, err := instameasure.ReadSnapshot(&buf)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("epoch %d restored %d flows (matches live table: %v)\n",
		epoch, len(flows), len(flows) == meter.Stats().ActiveFlows)
	// Output:
	// epoch 1 restored 94 flows (matches live table: true)
}
