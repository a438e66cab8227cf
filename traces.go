package instameasure

import (
	"fmt"
	"io"

	"instameasure/internal/pcap"
	"instameasure/internal/trace"
)

// ZipfTraceConfig shapes a backbone-like synthetic workload (see
// internal/trace for the full knob set surfaced here).
type ZipfTraceConfig struct {
	// Flows is the number of distinct flows.
	Flows int
	// TotalPackets is the approximate packet count.
	TotalPackets int
	// Skew is the Zipf exponent (default 1.0).
	Skew float64
	// RatePPS shapes timestamps (default 1e6, the CAIDA trace's mean).
	RatePPS float64
	// Seed drives all randomness.
	Seed uint64
}

// GenerateZipfTrace produces a CAIDA-like trace: Zipf flow sizes,
// bimodal packet sizes, interleaved arrivals.
func GenerateZipfTrace(cfg ZipfTraceConfig) (*Trace, error) {
	tr, err := trace.GenerateZipf(trace.ZipfConfig{
		Flows:        cfg.Flows,
		TotalPackets: cfg.TotalPackets,
		Skew:         cfg.Skew,
		RatePPS:      cfg.RatePPS,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	return tr, nil
}

// DiurnalTraceConfig shapes a long-running campus-gateway-like workload
// with day/night load variation.
type DiurnalTraceConfig struct {
	// Hours is the simulated monitoring duration.
	Hours float64
	// TotalPackets is the approximate packet count.
	TotalPackets int
	// Seed drives all randomness.
	Seed uint64
}

// GenerateDiurnalTrace produces a campus-like trace with sinusoidal
// day/night load and a weekend dip.
func GenerateDiurnalTrace(cfg DiurnalTraceConfig) (*Trace, error) {
	tr, err := trace.GenerateDiurnal(trace.DiurnalConfig{
		Hours:        cfg.Hours,
		TotalPackets: cfg.TotalPackets,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	return tr, nil
}

// InjectFlow overlays a constant-rate flow (e.g. a DDoS source) on a
// background trace; background may be nil.
func InjectFlow(background *Trace, key FlowKey, ratePPS float64, startTS, durationNs int64, pktLen int, seed uint64) (*Trace, error) {
	tr, err := trace.Inject(background, trace.InjectConfig{
		Key:        key,
		RatePPS:    ratePPS,
		StartTS:    startTS,
		DurationNs: durationNs,
		PacketLen:  pktLen,
		Seed:       seed,
	})
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	return tr, nil
}

// NewTraceFromPackets builds a trace from packets in arbitrary order,
// sorting by timestamp and computing exact ground truth.
func NewTraceFromPackets(pkts []Packet) *Trace {
	return trace.FromPackets(pkts)
}

// MergeTraces interleaves traces by timestamp into one workload with
// combined ground truth — e.g. an attack overlaid on benign background.
func MergeTraces(traces ...*Trace) *Trace {
	return trace.Merge(traces...)
}

// AttackTruth is the exact oracle for a generated attack trace: the
// offending host and the attack's true distinct-source/dst/port widths,
// for scoring detector precision and recall.
type AttackTruth = trace.AttackTruth

// SpoofedDDoSConfig shapes a source-spoofed SYN flood at one victim;
// see internal/trace for defaults.
type SpoofedDDoSConfig = trace.SpoofedDDoSConfig

// GenerateSpoofedDDoSTrace produces a many-sources-to-one-victim flood
// plus its exact ground truth — the workload the fleet tier's
// DDoS-victim detector is scored against.
func GenerateSpoofedDDoSTrace(cfg SpoofedDDoSConfig) (*Trace, AttackTruth, error) {
	tr, truth, err := trace.GenerateSpoofedDDoS(cfg)
	if err != nil {
		return nil, AttackTruth{}, fmt.Errorf("instameasure: %w", err)
	}
	return tr, truth, nil
}

// SuperSpreaderConfig shapes a one-source sweep across many hosts and
// ports; see internal/trace for defaults.
type SuperSpreaderConfig = trace.SuperSpreaderConfig

// GenerateSuperSpreaderTrace produces a one-source host/port sweep plus
// its exact ground truth, exercising both the super-spreader and
// port-scan detectors.
func GenerateSuperSpreaderTrace(cfg SuperSpreaderConfig) (*Trace, AttackTruth, error) {
	tr, truth, err := trace.GenerateSuperSpreader(cfg)
	if err != nil {
		return nil, AttackTruth{}, fmt.Errorf("instameasure: %w", err)
	}
	return tr, truth, nil
}

// PcapStream is a PacketSource decoding a capture incrementally. Its
// Skipped field counts the frames left out so far (not IP, no L4 ports, or
// truncated); read it once the stream has been drained.
type PcapStream = trace.PcapSource

// OpenPcapStream returns a PcapStream over a classic-libpcap stream —
// constant memory regardless of capture size, for live pipes and very
// large files. Each packet is returned as soon as its record has arrived:
// NextBatch decodes the records already read and returns a short read
// rather than wait for more.
func OpenPcapStream(r io.Reader) (*PcapStream, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	return trace.NewPcapSource(pr), nil
}

// ReadPcap materializes a classic-libpcap capture stream into a Trace.
// Frames that are not IP, carry no L4 ports or are truncated are left out
// and counted in Trace.Skipped. The per-flow ground truth is not built
// until Truth, Flows, EachTruth or TopTruth first asks for it, so loading
// a capture only to meter it costs the parse and nothing more.
func ReadPcap(r io.Reader) (*Trace, error) {
	tr, err := trace.ReadPcap(r)
	if err != nil {
		return nil, fmt.Errorf("instameasure: %w", err)
	}
	return tr, nil
}

// WritePcap writes a trace to w as an Ethernet pcap capture (snapLen 0
// means full frames).
func WritePcap(w io.Writer, tr *Trace, snapLen int) error {
	if err := tr.WritePcap(w, snapLen); err != nil {
		return fmt.Errorf("instameasure: %w", err)
	}
	return nil
}
