package pipeline

import (
	"testing"
	"unsafe"

	"instameasure/internal/core"
	"instameasure/internal/trace"
)

// TestExchangeMovesOneRecordPerForeignPacket is the counted witness for
// the exchange: a lane slot is one 16-byte record, and a two-worker run
// over a split trace pushes exactly one record for every packet whose
// shard is not its reader's, and none for the others. The lanes are deep
// enough to keep every record the run pushed, so the test reads them back
// afterwards. A worker reads whole chunks, so what a chunk pushed is
// either all its shard-1 packets, from worker 0, or all its shard-0
// packets, from worker 1.
func TestExchangeMovesOneRecordPerForeignPacket(t *testing.T) {
	tr := testTrace(t, 3000, 100_000)
	cfg := testConfig(2)
	cfg.QueueDepth = len(tr.Packets)
	sys := mustSystem(t, cfg)
	if size := unsafe.Sizeof(sys.rings[0][1].buf[0]); size > 16 {
		t.Errorf("a lane slot is %d bytes, want at most 16", size)
	}
	lanes := [2]*ring{sys.rings[0][1], sys.rings[1][0]} // lanes[f]: what worker f pushed
	bufs := [2][]core.Hashed{lanes[0].buf, lanes[1].buf}
	if _, err := sys.Run(tr.Source()); err != nil {
		t.Fatal(err)
	}

	chunks := (len(tr.Packets) + trace.SplitChunk - 1) / trace.SplitChunk
	shards := make([][2]int, chunks) // per chunk: its packets of shard 0 and of shard 1
	pushed := make([][2]int, chunks) // per chunk: records pushed by worker 0 and by worker 1
	for i := range tr.Packets {
		shards[i/trace.SplitChunk][sys.ShardOf(tr.Packets[i].Key)]++
	}
	seen := make([]bool, len(tr.Packets))
	records := 0
	for f, lane := range lanes {
		for _, r := range bufs[f][:lane.tail.Load()] {
			if seen[r.I] || sys.ShardOf(tr.Packets[r.I].Key) == f {
				t.Fatalf("worker %d pushed packet %d, seen before %v, of shard %d",
					f, r.I, seen[r.I], sys.ShardOf(tr.Packets[r.I].Key))
			}
			seen[r.I] = true
			pushed[r.I/trace.SplitChunk][f]++
			records++
		}
	}
	foreign := 0
	for c, p := range pushed {
		s := shards[c]
		switch {
		case p[1] == 0 && p[0] == s[1]: // read by worker 0
			foreign += s[1]
		case p[0] == 0 && p[1] == s[0]: // read by worker 1
			foreign += s[0]
		default:
			t.Errorf("chunk %d (shards %v) pushed %v records: not one reader's foreign packets", c, s, p)
		}
	}
	if records != foreign || records == 0 {
		t.Errorf("%d records pushed for %d foreign packets", records, foreign)
	}
	t.Logf("%d of %d packets crossed a lane", records, len(tr.Packets))
}
