package instameasure_test

import (
	"encoding/binary"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCommandLineTools builds every cmd/ binary and exercises the
// tracegen → instameasure → wsafdump toolchain end to end, plus one
// instabench figure.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping tool builds in -short mode")
	}
	bin := t.TempDir()
	work := t.TempDir()

	build := func(name string) string {
		t.Helper()
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		return out
	}
	runTool := func(path string, args ...string) string {
		t.Helper()
		out, err := exec.Command(path, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(path), args, err, out)
		}
		return string(out)
	}

	tracegen := build("tracegen")
	instameasure := build("instameasure")
	wsafdump := build("wsafdump")
	instabench := build("instabench")

	pcapPath := filepath.Join(work, "t.pcap")
	out := runTool(tracegen, "-o", pcapPath, "-flows", "2000", "-packets", "40000", "-seed", "3")
	if !strings.Contains(out, "2000 flows") {
		t.Errorf("tracegen output unexpected: %s", out)
	}

	snapPath := filepath.Join(work, "flows.ims")
	out = runTool(instameasure, "-pcap", pcapPath, "-top", "3", "-snapshot", snapPath)
	for _, want := range []string{"top 3 flows by packets", "regulation rate", "wrote flow table snapshot"} {
		if !strings.Contains(out, want) {
			t.Errorf("instameasure output missing %q:\n%s", want, out)
		}
	}

	// Streaming mode over stdin.
	f, err := os.Open(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(instameasure, "-pcap", "-", "-top", "2", "-epoch", "20000")
	cmd.Stdin = f
	streamOut, err := cmd.CombinedOutput()
	f.Close()
	if err != nil {
		t.Fatalf("streaming instameasure: %v\n%s", err, streamOut)
	}
	if !strings.Contains(string(streamOut), "epoch 1:") {
		t.Errorf("streaming mode printed no epochs:\n%s", streamOut)
	}

	// Non-IP frames are counted on every path: materialised, streamed
	// from a file (single meter and cluster), and streamed from stdin.
	capture, err := os.ReadFile(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	arp := make([]byte, 16+60)
	binary.LittleEndian.PutUint32(arp[8:], 60)  // captured length
	binary.LittleEndian.PutUint32(arp[12:], 60) // wire length
	arp[16+12], arp[16+13] = 0x08, 0x06         // EtherType ARP
	for range 3 {
		capture = append(capture, arp...)
	}
	arpPath := filepath.Join(work, "arp.pcap")
	if err := os.WriteFile(arpPath, capture, 0o644); err != nil {
		t.Fatal(err)
	}
	const skipped = "3 frames skipped (not IP, no L4 ports, or truncated)"
	for _, args := range [][]string{{}, {"-stream"}, {"-stream", "-workers", "2"}} {
		out := runTool(instameasure, append([]string{"-pcap", arpPath, "-top", "1"}, args...)...)
		if !strings.Contains(out, arpPath+": ") || !strings.Contains(out, skipped) {
			t.Errorf("instameasure -pcap %v does not report %q:\n%s", args, skipped, out)
		}
	}
	f, err = os.Open(arpPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(instameasure, "-pcap", "-", "-top", "1")
	cmd.Stdin = f
	streamOut, err = cmd.CombinedOutput()
	f.Close()
	if err != nil || !strings.Contains(string(streamOut), "streamed -: "+skipped) {
		t.Errorf("instameasure -pcap - does not report %q (%v):\n%s", skipped, err, streamOut)
	}

	// Every flag works at any worker count, 3 (not a power of two: each
	// worker's WSAF share rounds down) included, on the loaded capture and
	// on the stream: the same epoch cuts, each heavy hitter printed once,
	// the same epochs in the store.
	var epochs []string
	var stored string
	for _, stream := range []bool{false, true} {
		for _, w := range []string{"1", "2", "3"} {
			run := "-workers " + w
			args := []string{"-pcap", pcapPath, "-workers", w, "-wsaf-exp", "16", "-top", "1",
				"-epoch", "6500", "-epoch-interval", "7ms", "-hh-pkts", "300"}
			if stream {
				run, args = "-stream "+run, append(args, "-stream")
			}
			dir := filepath.Join(work, "store"+strings.ReplaceAll(run, " ", ""))
			out := runTool(instameasure, append(args, "-store", dir)...)
			var cuts []string
			hitters := map[string]int{}
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "epoch ") {
					cuts = append(cuts, strings.SplitN(line, ",", 2)[0]) // "epoch k: N packets"
				}
				if strings.HasPrefix(line, "HEAVY HITTER") {
					hitters[strings.Fields(line)[5]]++ // the flow key
				}
			}
			if epochs == nil {
				epochs = cuts
			}
			if len(cuts) < 4 || !slices.Equal(cuts, epochs) {
				t.Errorf("%s cut epochs %q, want %q (-workers 1)", run, cuts, epochs)
			}
			if len(hitters) == 0 {
				t.Errorf("%s reported no heavy hitters:\n%s", run, out)
			}
			for key, n := range hitters {
				if n != 1 {
					t.Errorf("%s reported heavy hitter %s %d times", run, key, n)
				}
			}
			// "DIR: 1 segments, N records, E epochs [a..b], F flows, …"
			dump := strings.SplitN(runTool(wsafdump, "-store", dir), ", ", 4)
			if stored == "" {
				stored = strings.Join(dump[1:3], ", ")
			}
			if len(dump) < 4 || strings.Join(dump[1:3], ", ") != stored {
				t.Errorf("%s stored %q, want %q (-workers 1)", run, dump, stored)
			}
		}
	}

	out = runTool(wsafdump, "-top", "2", snapPath)
	if !strings.Contains(out, "top 2 flows by packets") {
		t.Errorf("wsafdump output unexpected:\n%s", out)
	}

	out = runTool(instabench, "-scale", "small", "-fig", "8a")
	if !strings.Contains(out, "Fig.8a") {
		t.Errorf("instabench output unexpected:\n%s", out)
	}

	// Error paths: unknown figures (deleg is a deleted experiment's id),
	// missing file.
	for _, id := range []string{"nope", "deleg"} {
		if msg, err := exec.Command(instabench, "-scale", "small", "-fig", id).CombinedOutput(); err == nil {
			t.Errorf("instabench -fig %s succeeded:\n%s", id, msg)
		}
	}
	if msg, err := exec.Command(wsafdump, filepath.Join(work, "missing.ims")).CombinedOutput(); err == nil {
		t.Errorf("wsafdump on missing file succeeded:\n%s", msg)
	}
}
