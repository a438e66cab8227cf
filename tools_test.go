package instameasure_test

import (
	"encoding/binary"
	"os"
	"os/exec"
	"path/filepath"
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

	out = runTool(wsafdump, "-top", "2", snapPath)
	if !strings.Contains(out, "top 2 flows by packets") {
		t.Errorf("wsafdump output unexpected:\n%s", out)
	}

	out = runTool(instabench, "-scale", "small", "-fig", "8a")
	if !strings.Contains(out, "Fig.8a") {
		t.Errorf("instabench output unexpected:\n%s", out)
	}

	// Error paths: unknown figure, missing file.
	if msg, err := exec.Command(instabench, "-fig", "nope").CombinedOutput(); err == nil {
		t.Errorf("instabench -fig nope succeeded:\n%s", msg)
	}
	if msg, err := exec.Command(wsafdump, filepath.Join(work, "missing.ims")).CombinedOutput(); err == nil {
		t.Errorf("wsafdump on missing file succeeded:\n%s", msg)
	}
}
