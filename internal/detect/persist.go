package detect

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"instameasure/internal/packet"
	"instameasure/internal/wsaf"
)

// ErrPersistConfig rejects invalid persistence parameters.
var ErrPersistConfig = errors.New("detect: need WindowEpochs >= MinEpochs >= 1")

// PersistenceTracker finds long-lived flows across measurement epochs —
// the "analyze flow behavior for long-term measurement" capability the
// In-DRAM WSAF enables (Section II). A flow is *persistent* when it
// appears in at least MinEpochs of the last WindowEpochs WSAF snapshots:
// beacons, tunnels, and covert channels persist; normal mice do not.
type PersistenceTracker struct {
	window int
	min    int

	epoch   int
	history map[packet.FlowKey]*persistence
}

type persistence struct {
	// epochBits is a sliding bitmap of presence over the window.
	epochBits uint64
	lastSeen  int
	totalPkts float64
}

// PersistConfig parameterizes a PersistenceTracker.
type PersistConfig struct {
	// WindowEpochs is the sliding window length (max 64); 0 means 16.
	WindowEpochs int
	// MinEpochs is the presence count that makes a flow persistent;
	// 0 means 3/4 of the window.
	MinEpochs int
}

// PersistentFlow is one long-lived flow report.
type PersistentFlow struct {
	Key packet.FlowKey
	// Epochs is how many of the window's epochs the flow appeared in.
	Epochs int
	// TotalPkts sums the flow's WSAF packet estimates across appearances.
	TotalPkts float64
}

// NewPersistenceTracker builds a tracker from cfg.
func NewPersistenceTracker(cfg PersistConfig) (*PersistenceTracker, error) {
	window := cfg.WindowEpochs
	if window == 0 {
		window = 16
	}
	min := cfg.MinEpochs
	if min == 0 {
		min = window * 3 / 4
		if min < 1 {
			min = 1
		}
	}
	if window > 64 || min < 1 || min > window {
		return nil, fmt.Errorf("%w (window=%d min=%d)", ErrPersistConfig, window, min)
	}
	return &PersistenceTracker{
		window:  window,
		min:     min,
		history: make(map[packet.FlowKey]*persistence),
	}, nil
}

// ObserveEpoch records one epoch's WSAF snapshot. Call it at each epoch
// boundary with Engine.Snapshot()'s entries.
func (t *PersistenceTracker) ObserveEpoch(entries []wsaf.Entry) {
	t.epoch++
	for i := range entries {
		e := &entries[i]
		p := t.history[e.Key]
		if p == nil {
			p = &persistence{}
			t.history[e.Key] = p
		}
		// Shift the bitmap by the epochs elapsed since last seen, then
		// mark presence in the newest slot.
		gap := t.epoch - p.lastSeen
		if gap >= 64 {
			p.epochBits = 0
		} else {
			p.epochBits <<= uint(gap)
		}
		p.epochBits |= 1
		p.lastSeen = t.epoch
		p.totalPkts += e.Pkts
	}

	// Garbage-collect flows that slid entirely out of the window.
	for k, p := range t.history {
		if t.epoch-p.lastSeen >= t.window {
			delete(t.history, k)
		}
	}
}

// Persistent returns flows present in at least MinEpochs of the last
// WindowEpochs, most persistent first.
func (t *PersistenceTracker) Persistent() []PersistentFlow {
	var out []PersistentFlow
	for k, p := range t.history {
		n := t.presence(p)
		if n >= t.min {
			out = append(out, PersistentFlow{Key: k, Epochs: n, TotalPkts: p.totalPkts})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Epochs != out[j].Epochs {
			return out[i].Epochs > out[j].Epochs
		}
		if out[i].TotalPkts != out[j].TotalPkts {
			return out[i].TotalPkts > out[j].TotalPkts
		}
		return out[i].Key.SrcPort < out[j].Key.SrcPort
	})
	return out
}

// Presence returns how many of the window's epochs the flow appeared in.
func (t *PersistenceTracker) Presence(key packet.FlowKey) int {
	p := t.history[key]
	if p == nil {
		return 0
	}
	return t.presence(p)
}

// Tracked returns the number of flows currently in the history window.
func (t *PersistenceTracker) Tracked() int { return len(t.history) }

// Epoch returns the number of epochs observed.
func (t *PersistenceTracker) Epoch() int { return t.epoch }

func (t *PersistenceTracker) presence(p *persistence) int {
	seen := p.epochBits
	// Age the bitmap to the current epoch, then mask to the window.
	gap := t.epoch - p.lastSeen
	if gap >= 64 {
		return 0
	}
	seen <<= uint(gap)
	if t.window < 64 {
		seen &= (1 << uint(t.window)) - 1
	}
	return bits.OnesCount64(seen)
}
