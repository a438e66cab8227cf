// Package locksafe is the locksafe golden fixture: every hazard class
// the analyzer bans under a held lock, the blessed-seam escape hatch,
// and the clean patterns that must stay silent.
package locksafe

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
)

type server struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	onDone func()
	conn   net.Conn
	ch     chan int
	hits   uint64
	typed  atomic.Uint64
}

// count bumps a plain word atomically: the next plain read of s.hits would
// race it unseen, so only typed atomics are allowed.
func (s *server) count() {
	atomic.AddUint64(&s.hits, 1) // want `atomic\.AddUint64 on a plain word — use a typed atomic`
	//im:allow locksafe — fixture: a blessed seam stays silent
	atomic.StoreUint64(&s.hits, 0)
	s.typed.Add(1)
}

// notify invokes a user-supplied callback under the lock — the PR 9
// collector bug class.
func (s *server) notify() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onDone() // want `call through function value s\.onDone while holding \(server\)\.mu \(held since line \d+\) — snapshot callbacks under the lock, release it, then invoke`
}

// send blocks on a peer's receive buffer with the state lock held.
func (s *server) send(p []byte) {
	s.mu.Lock()
	s.conn.Write(p) // want `blocking I/O \(\(Conn\)\.Write\) while holding \(server\)\.mu \(held since line \d+\)`
	s.mu.Unlock()
}

// readLocked shows the same hazard under an RWMutex read lock.
func (s *server) readLocked(p []byte) {
	s.rw.RLock()
	s.conn.Write(p) // want `blocking I/O \(\(Conn\)\.Write\) while holding \(server\)\.rw \(held since line \d+\)`
	s.rw.RUnlock()
}

// push stalls on a full channel while holding the lock.
func (s *server) push(v int) {
	s.mu.Lock()
	s.ch <- v // want `channel send while holding \(server\)\.mu \(held since line \d+\)`
	s.mu.Unlock()
}

// tryPush is the non-blocking form: a select with a default clause
// cannot stall, so it is exempt.
func (s *server) tryPush(v int) {
	s.mu.Lock()
	select {
	case s.ch <- v:
	default:
	}
	s.mu.Unlock()
}

// flush carries the hazard; it is flagged at locked call sites, not here.
func (s *server) flush(f *os.File) {
	f.Sync()
}

// checkpoint reaches blocking I/O through a callee while locked.
func (s *server) checkpoint(f *os.File) {
	s.mu.Lock()
	s.flush(f) // want `call to \(server\)\.flush reaches blocking I/O \(\(File\)\.Sync\) while holding \(server\)\.mu \(held since line \d+\)`
	s.mu.Unlock()
}

// blessed is an approved seam: the directive on its own line blesses the
// statement below it.
func (s *server) blessed(p []byte) {
	s.mu.Lock()
	//im:allow locksafe — fixture: wire-order seam held across the send by design
	s.conn.Write(p)
	s.mu.Unlock()
}

// earlyExit releases on the error path and before the blocking work —
// the branch merge must not report the unlocked write.
func (s *server) earlyExit(p []byte) {
	s.mu.Lock()
	if len(p) == 0 {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.conn.Write(p)
}

// snapshotThenInvoke is the pattern the analyzer demands: copy the
// callback under the lock, release, then call.
func (s *server) snapshotThenInvoke() {
	s.mu.Lock()
	fn := s.onDone
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// closures run under their own lock state: this literal locks and then
// calls through a function value, and is flagged like a named function.
func (s *server) deferredNotify() func() {
	return func() {
		s.mu.Lock()
		s.onDone() // want `call through function value s\.onDone while holding \(server\)\.mu \(held since line \d+\)`
		s.mu.Unlock()
	}
}
