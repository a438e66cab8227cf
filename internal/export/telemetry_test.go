package export

import (
	"bytes"
	"errors"
	"testing"

	"instameasure/internal/telemetry"
)

func TestSnapshotStatsRoundTrip(t *testing.T) {
	records := []Record{rec(1), rec(2), rec(3)}
	stats := TableStats{Updates: 10, Inserts: 5, Expirations: 3, Evictions: 2, Drops: 1}

	var buf bytes.Buffer
	if err := WriteSnapshotStats(&buf, 42, records, stats); err != nil {
		t.Fatal(err)
	}
	b, got, hasStats, err := ReadSnapshotStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !hasStats {
		t.Fatal("trailer not detected")
	}
	if got != stats {
		t.Fatalf("stats = %+v, want %+v", got, stats)
	}
	if b.Epoch != 42 || len(b.Records) != 3 {
		t.Fatalf("batch epoch %d / %d records", b.Epoch, len(b.Records))
	}
}

func TestSnapshotStatsLegacyFileNoTrailer(t *testing.T) {
	// A plain writeSnapshot file (pre-trailer format) must read back with
	// hasStats=false and zero stats.
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, 7, []Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	b, stats, hasStats, err := ReadSnapshotStats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hasStats {
		t.Fatal("legacy file reported a trailer")
	}
	if stats != (TableStats{}) {
		t.Fatalf("legacy stats = %+v, want zero", stats)
	}
	if b.Epoch != 7 || len(b.Records) != 1 {
		t.Fatalf("batch epoch %d / %d records", b.Epoch, len(b.Records))
	}
}

func TestSnapshotStatsTrailerCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshotStats(&buf, 1, []Record{rec(1)}, TableStats{Updates: 9}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-10] ^= 0xFF // flip a trailer payload byte
	if _, _, _, err := ReadSnapshotStats(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestSnapshotReadIgnoresTrailer(t *testing.T) {
	// The plain reader must still decode a trailer-bearing file.
	var buf bytes.Buffer
	if err := WriteSnapshotStats(&buf, 3, []Record{rec(1), rec(2)}, TableStats{Inserts: 2}); err != nil {
		t.Fatal(err)
	}
	b, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch != 3 || len(b.Records) != 2 {
		t.Fatalf("batch epoch %d / %d records", b.Epoch, len(b.Records))
	}
}

func TestExporterTelemetry(t *testing.T) {
	collector, err := NewCollector("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()

	exp, err := Dial(collector.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	reg := telemetry.NewRegistry("instameasure", 1)
	exp.SetTelemetry(NewTelemetry(reg, 0))

	batch := Batch{Epoch: 1, Records: []Record{rec(1), rec(2), rec(3)}}
	if err := exp.Export(batch); err != nil {
		t.Fatal(err)
	}
	if err := exp.Export(batch); err != nil {
		t.Fatal(err)
	}

	if got := reg.Value("instameasure_export_batches_total"); got != 2 {
		t.Errorf("export_batches_total = %g, want 2", got)
	}
	if got := reg.Value("instameasure_export_records_total"); got != 6 {
		t.Errorf("export_records_total = %g, want 6", got)
	}
	if got := reg.Value("instameasure_export_bytes_total"); got <= 0 {
		t.Errorf("export_bytes_total = %g, want > 0", got)
	}
	if got := reg.Value("instameasure_export_errors_total"); got != 0 {
		t.Errorf("export_errors_total = %g, want 0", got)
	}

	waitFor(t, func() bool {
		batches, records := collector.Stats()
		return batches == 2 && records == 6
	})
}
