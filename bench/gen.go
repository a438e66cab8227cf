package main

import (
	"encoding/binary"
	"math"
	"sort"

	"instameasure/internal/export"
	"instameasure/internal/packet"
)

// The generators below belong to the benchmark, not the program: every
// input is derived from the workload seed with the benchmark's own RNG
// and samplers, so a change to internal/trace cannot move a workload.

// rng is splitmix64: tiny, seedable, and independent of the program's
// flowhash.Rand.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// derive returns an independent stream seed for a named purpose, so
// -seed changes every generated input and nothing else.
func derive(seed uint64, purpose uint64) uint64 {
	r := rng{s: seed ^ purpose*0xD6E8FEB86659FD93}
	return r.next() | 1
}

// alias is a Vose alias table over Zipf weights 1/i^skew: O(1) draws for
// any skew (math/rand's Zipf needs skew > 1).
type alias struct {
	prob []float64
	next []int32
}

func newZipfAlias(n int, skew float64) *alias {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -skew)
		sum += w[i]
	}
	a := &alias{prob: make([]float64, n), next: make([]int32, n)}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := range w {
		w[i] *= float64(n) / sum
		if w[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		a.prob[s], a.next[s] = w[s], l
		w[l] -= 1 - w[s]
		if w[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(small, large...) {
		a.prob[i], a.next[i] = 1, i
	}
	return a
}

func (a *alias) draw(r *rng) int {
	i := r.intn(len(a.prob))
	if r.float() < a.prob[i] {
		return i
	}
	return int(a.next[i])
}

// packetTrace is one packet workload's input with exact truth.
type packetTrace struct {
	pkts []packet.Packet
	// flowOf[i] is the flow id of pkts[i]; ids [0, zipfFlows) are the
	// Zipf population, the rest are the injected constant-rate flows.
	flowOf    []uint32
	keys      []packet.FlowKey
	truePkts  []uint64
	trueBytes []uint64
	zipfFlows int
	// injSlots[j] lists, ascending, the packet indexes of injected flow j
	// — its exact count at any trace timestamp is one binary search.
	injSlots   [][]int32
	totalBytes uint64
}

const tsStepNs = 1000 // 1 Mpps trace clock: packet i carries TS (i+1)*tsStepNs

func flowKey(id int, seed uint64) packet.FlowKey {
	r := rng{s: seed ^ uint64(id)*0xA24BAED4963EE407}
	x := r.next()
	proto := packet.ProtoTCP
	if x&0xF == 0 {
		proto = packet.ProtoUDP
	}
	// Source 10.0.0.0/8 with the id in the low 24 bits keeps keys unique
	// for any population below 2^24; the rest is hashed.
	src := 0x0A000000 | (uint32(id)^uint32(seed))&0x00FFFFFF
	dst := 0xC0000000 | uint32(x>>8)&0x0FFFFFFF
	return packet.V4Key(src, dst, 1024+uint16(x>>40)%60000, uint16(x>>24)%1024+1, proto)
}

func packetLen(r *rng) uint16 {
	switch u := r.intn(10); {
	case u < 5:
		return uint16(54 + r.intn(46))
	case u < 9:
		return uint16(1400 + r.intn(101))
	default:
		return uint16(100 + r.intn(1300))
	}
}

// genPacketTrace draws zipfPkts packets from a Zipf population and lays
// injFlows constant-rate flows of injPkts packets each over them.
func genPacketTrace(seed uint64, flows, zipfPkts int, skew float64, injFlows, injPkts int) *packetTrace {
	total := zipfPkts + injFlows*injPkts
	t := &packetTrace{
		pkts:      make([]packet.Packet, total),
		flowOf:    make([]uint32, total),
		keys:      make([]packet.FlowKey, flows+injFlows),
		truePkts:  make([]uint64, flows+injFlows),
		trueBytes: make([]uint64, flows+injFlows),
		zipfFlows: flows,
		injSlots:  make([][]int32, injFlows),
	}
	keySeed := derive(seed, 1)
	for id := range t.keys {
		t.keys[id] = flowKey(id, keySeed)
	}
	// Injected packets claim their slots first: packet k of a flow sits
	// near (k+u)/injPkts of the way through, the next free slot if taken.
	const free = math.MaxUint32
	for i := range t.flowOf {
		t.flowOf[i] = free
	}
	ir := rng{s: derive(seed, 2)}
	for j := 0; j < injFlows; j++ {
		for k := 0; k < injPkts; k++ {
			slot := int((float64(k) + ir.float()) / float64(injPkts) * float64(total))
			for t.flowOf[slot%total] != free {
				slot++
			}
			t.flowOf[slot%total] = uint32(flows + j)
		}
	}
	al := newZipfAlias(flows, skew)
	zr := rng{s: derive(seed, 3)}
	lr := rng{s: derive(seed, 4)}
	for i := range t.pkts {
		id := t.flowOf[i]
		if id == free {
			id = uint32(al.draw(&zr))
			t.flowOf[i] = id
		} else {
			j := int(id) - flows
			t.injSlots[j] = append(t.injSlots[j], int32(i))
		}
		n := packetLen(&lr)
		t.pkts[i] = packet.Packet{Key: t.keys[id], Len: n, TS: int64(i+1) * tsStepNs}
		t.truePkts[id]++
		t.trueBytes[id] += uint64(n)
		t.totalBytes += uint64(n)
	}
	return t
}

// trueCountAt is injected flow j's exact packet count up to and including
// trace timestamp ts.
func (t *packetTrace) trueCountAt(j int, ts int64) int {
	idx := int32(ts/tsStepNs - 1)
	s := t.injSlots[j]
	return sort.Search(len(s), func(i int) bool { return s[i] > idx })
}

// topTrue returns the ids of the k largest flows by true packets, ties
// broken by id so the set is a function of the seed alone.
func (t *packetTrace) topTrue(k int) []int {
	ids := make([]int, 0, len(t.truePkts))
	for id, n := range t.truePkts {
		if n > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		if t.truePkts[ids[a]] != t.truePkts[ids[b]] {
			return t.truePkts[ids[a]] > t.truePkts[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if k < len(ids) {
		ids = ids[:k]
	}
	return ids
}

// wireCapture is the wire_cluster input: classic-pcap bytes plus the truth
// of what a correct parser must extract from them.
type wireCapture struct {
	pcap   []byte
	frames int
	nonIP  int
	refs   []frameRef   // where each frame's bytes sit in pcap
	parsed *packetTrace // exact truth over the parseable frames, keyed as the parser keys them
}

// frameRef locates one frame inside the capture, so the parser can be
// timed on frames without the reader.
type frameRef struct {
	off        uint32
	incl, wire uint16
}

const (
	snapLen     = 96
	pcapMagicNs = 0xA1B23C4D
)

// genWireCapture encodes a Zipf trace as Ethernet frames: v6Pct% IPv6,
// fragPct% IPv4 fragments (keyed on the 3-tuple, as the parser's
// fragment policy demands) and nonIPPct% ARP frames a parser must skip.
func genWireCapture(seed uint64, flows, pkts int, skew float64) *wireCapture {
	const v6Pct, fragPct, nonIPPct = 5, 1, 1
	al := newZipfAlias(flows, skew)
	zr := rng{s: derive(seed, 11)}
	lr := rng{s: derive(seed, 12)}
	kr := rng{s: derive(seed, 13)}
	keySeed := derive(seed, 14)

	// A flow is v4 or v6 for life; fragments and non-IP are per frame.
	keys := make([]packet.FlowKey, flows)
	for id := range keys {
		k := flowKey(id, keySeed)
		if kr.intn(100) < v6Pct {
			k.IsV6 = true
			k.SrcIP = [16]byte{0x20, 0x01, 0x0d, 0xb8}
			k.DstIP = [16]byte{0x20, 0x01, 0x0d, 0xb8, 0xff}
			binary.BigEndian.PutUint32(k.SrcIP[12:], uint32(id))
			binary.BigEndian.PutUint64(k.DstIP[8:], kr.next())
		}
		keys[id] = k
	}

	w := &wireCapture{frames: pkts}
	w.pcap = make([]byte, 0, pkts*(16+snapLen)+24)
	w.pcap = binary.LittleEndian.AppendUint32(w.pcap, pcapMagicNs)
	w.pcap = binary.LittleEndian.AppendUint16(w.pcap, 2)
	w.pcap = binary.LittleEndian.AppendUint16(w.pcap, 4)
	w.pcap = append(w.pcap, make([]byte, 8)...)
	w.pcap = binary.LittleEndian.AppendUint32(w.pcap, snapLen)
	w.pcap = binary.LittleEndian.AppendUint32(w.pcap, 1) // DLT_EN10MB

	// Parsed-flow ids: a table for whole flows, a map only for the 1 % of
	// frames that are fragments and so key on the 3-tuple.
	parsed := &packetTrace{zipfFlows: flows}
	const unseen = math.MaxUint32
	idOf := make([]uint32, flows)
	for i := range idOf {
		idOf[i] = unseen
	}
	fragID := make(map[packet.FlowKey]uint32)
	var frame [1600]byte
	for i := 0; i < pkts; i++ {
		ts := int64(i+1) * tsStepNs
		wire := int(packetLen(&lr))
		var n, flow int
		var p packet.Packet
		switch u := kr.intn(100); {
		case u < nonIPPct:
			n = putARP(frame[:])
			wire = n
			w.nonIP++
		default:
			flow = al.draw(&zr)
			k := keys[flow]
			frag := !k.IsV6 && u < nonIPPct+fragPct
			if k.IsV6 && wire < 74 {
				wire = 74
			}
			n = putIPFrame(frame[:], &k, wire, frag)
			if frag {
				k.SrcPort, k.DstPort = 0, 0
			}
			p = packet.Packet{Key: k, Len: uint16(wire), Fragment: frag, TS: ts}
		}
		incl := min(n, wire, snapLen)
		w.pcap = binary.LittleEndian.AppendUint32(w.pcap, uint32(ts/1e9))
		w.pcap = binary.LittleEndian.AppendUint32(w.pcap, uint32(ts%1e9))
		w.pcap = binary.LittleEndian.AppendUint32(w.pcap, uint32(incl))
		w.pcap = binary.LittleEndian.AppendUint32(w.pcap, uint32(wire))
		w.refs = append(w.refs, frameRef{off: uint32(len(w.pcap)), incl: uint16(incl), wire: uint16(wire)})
		w.pcap = append(w.pcap, frame[:incl]...)
		if p.Len == 0 {
			continue
		}
		id := idOf[flow]
		if p.Fragment {
			var ok bool
			if id, ok = fragID[p.Key]; !ok {
				id = unseen
			}
		}
		if id == unseen {
			id = uint32(len(parsed.keys))
			if p.Fragment {
				fragID[p.Key] = id
			} else {
				idOf[flow] = id
			}
			parsed.keys = append(parsed.keys, p.Key)
			parsed.truePkts = append(parsed.truePkts, 0)
			parsed.trueBytes = append(parsed.trueBytes, 0)
		}
		parsed.pkts = append(parsed.pkts, p)
		parsed.flowOf = append(parsed.flowOf, id)
		parsed.truePkts[id]++
		parsed.trueBytes[id] += uint64(wire)
		parsed.totalBytes += uint64(wire)
	}
	w.parsed = parsed
	return w
}

func putARP(b []byte) int {
	clear(b[:60])
	copy(b[0:6], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	b[12], b[13] = 0x08, 0x06
	return 60
}

// putIPFrame writes an Ethernet + IPv4/IPv6 + TCP/UDP header stack for
// key k, as long on the wire as wire says; only the headers are written,
// the snapped payload stays zero.
func putIPFrame(b []byte, k *packet.FlowKey, wire int, frag bool) int {
	clear(b[:snapLen+32])
	b[0], b[6] = 0x02, 0x02
	off := 14
	if k.IsV6 {
		b[12], b[13] = 0x86, 0xDD
		b[off] = 0x60
		binary.BigEndian.PutUint16(b[off+4:], uint16(wire-14-40))
		b[off+6] = k.Proto
		b[off+7] = 64
		copy(b[off+8:], k.SrcIP[:])
		copy(b[off+24:], k.DstIP[:])
		off += 40
	} else {
		b[12], b[13] = 0x08, 0x00
		b[off] = 0x45
		binary.BigEndian.PutUint16(b[off+2:], uint16(wire-14))
		if frag {
			b[off+6] = 0x20 // more-fragments
		}
		b[off+8] = 64
		b[off+9] = k.Proto
		copy(b[off+12:], k.SrcIP[:4])
		copy(b[off+16:], k.DstIP[:4])
		off += 20
	}
	binary.BigEndian.PutUint16(b[off:], k.SrcPort)
	binary.BigEndian.PutUint16(b[off+2:], k.DstPort)
	if k.Proto == packet.ProtoTCP {
		b[off+12] = 0x50
		off += 20
	} else {
		binary.BigEndian.PutUint16(b[off+4:], uint16(wire-off))
		off += 8
	}
	return max(off, wire)
}

// fleetSite is one exporting site's cumulative flow table: every epoch
// its counters grow by seeded deltas, and on attack epochs it gains a
// block of new sources converging on a fresh victim. A block lives until
// the next one replaces it (mice age out of a WSAF), so batch size — and
// with it the cost of an epoch — does not drift with how many epochs a
// run fits in its time budget.
type fleetSite struct {
	name    string
	records []export.Record
	r       rng
	base    int // background records, before any attack block
}

const (
	attackEvery   = 5
	attackSources = 1200
	ddosThreshold = 300
)

// newFleetSite builds a site's background table. Destinations come from
// a pool small enough that the DDoS detector's 4096-group table never
// fills (a full table would drop the victim's group) and wide enough that
// no background destination nears the threshold.
func newFleetSite(seed uint64, idx int, name string, records int) *fleetSite {
	s := &fleetSite{name: name, r: rng{s: derive(seed, 20+uint64(idx))}, base: records}
	s.records = make([]export.Record, records, records+attackSources)
	const dstPool = 1000
	for i := range s.records {
		x := s.r.next()
		src := uint32(0x0A000000) | uint32(idx)<<22 | uint32(i)
		dst := 0xC6330000 | uint32(idx)<<12 | uint32(x%dstPool)
		s.records[i] = export.Record{
			Key:       packet.V4Key(src, dst, 1024+uint16(x>>16)%60000, 443, packet.ProtoTCP),
			Pkts:      float64(1 + x>>32%50),
			Bytes:     float64(100 + x>>40%50000),
			FirstSeen: 1,
		}
	}
	return s
}

// victim is the address attacked in the episode that starts at epoch.
func victim(epoch int64) uint32 { return 0xCB007100 + uint32(epoch/attackEvery) }

// advance moves the site to the next epoch: every background counter
// grows, and attack replaces the previous block of attack sources with a
// new one aimed at the epoch's victim.
func (s *fleetSite) advance(epoch int64, attack bool) {
	for i := range s.records[:s.base] {
		d := s.r.next()
		rec := &s.records[i]
		rec.Pkts += float64(d % 8)
		rec.Bytes += float64(d % 8 * (64 + d>>8%1400))
		rec.LastUpdate = epoch * 1e9
	}
	if !attack {
		return
	}
	s.records = s.records[:s.base]
	v := victim(epoch)
	for i := 0; i < attackSources; i++ {
		src := 0x64000000 | uint32(epoch)<<12&0x00FFF000 | uint32(i)
		s.records = append(s.records, export.Record{
			Key:        packet.V4Key(src, v, 40000+uint16(i), 80, packet.ProtoTCP),
			Pkts:       2,
			Bytes:      120,
			FirstSeen:  epoch * 1e9,
			LastUpdate: epoch * 1e9,
		})
	}
}
