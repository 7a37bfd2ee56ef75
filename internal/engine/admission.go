package engine

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Admission is the CAS-admission and EWMA retry policy. At most capacity
// requests hold a token at once (capacity <= 0 admits everything); a
// request beyond it is shed with a retry hint: the backlog it would wait
// behind, served at the smoothed per-request service time across
// servers concurrent servers, clamped to [100ms, 30s]. The engine runs
// one in front of its worker pool, and biorankd a second, separate one
// of the same size in front of the endpoints that rank on the request
// goroutine.
type Admission struct {
	capacity int
	servers  int
	pending  atomic.Int64  // tokens held: admitted, not yet done
	shed     atomic.Uint64 // requests refused since start
	avgNS    atomic.Int64  // EWMA of service time (alpha 1/8)
}

// AdmissionFor is the one rule that turns a Config into an admission
// budget. Its servers are Workers (runtime.GOMAXPROCS(0) when 0), capped
// by a positive MaxInFlight. Admission control is on when MaxInFlight or
// MaxQueue is positive: the capacity is then MaxInFlight (the worker
// count when 0) plus MaxQueue. Otherwise every request is admitted.
func AdmissionFor(cfg Config) *Admission {
	servers := cfg.Workers
	if servers <= 0 {
		servers = runtime.GOMAXPROCS(0)
	}
	inFlight := servers
	if cfg.MaxInFlight > 0 {
		inFlight = cfg.MaxInFlight
		servers = min(servers, inFlight)
	}
	capacity := 0
	if cfg.MaxInFlight > 0 || cfg.MaxQueue > 0 {
		capacity = inFlight + cfg.MaxQueue
	}
	return &Admission{capacity: capacity, servers: servers}
}

// Admit claims a token. At capacity it counts the request as shed and
// returns false; the caller then answers with RetryAfter.
func (a *Admission) Admit() bool {
	if a.capacity <= 0 {
		a.pending.Add(1)
		return true
	}
	for {
		cur := a.pending.Load()
		if cur >= int64(a.capacity) {
			a.shed.Add(1)
			return false
		}
		if a.pending.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Done returns a token claimed by Admit.
func (a *Admission) Done() { a.pending.Add(-1) }

// Observe folds one request's service time into the EWMA behind
// RetryAfter.
func (a *Admission) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	for {
		old := a.avgNS.Load()
		next := ns
		if old > 0 {
			next = old + (ns-old)/8
		}
		if a.avgNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// RetryAfter estimates when a shed request should try again.
func (a *Admission) RetryAfter() time.Duration {
	avg := time.Duration(a.avgNS.Load())
	if avg <= 0 {
		avg = 50 * time.Millisecond
	}
	d := avg * time.Duration(a.pending.Load()+1) / time.Duration(a.servers)
	return min(max(d, 100*time.Millisecond), 30*time.Second)
}

// Capacity is the admission limit; 0 or less means unlimited.
func (a *Admission) Capacity() int { return a.capacity }

// Servers is how many admitted requests are served at once: the engine's
// pool size.
func (a *Admission) Servers() int { return a.servers }

// Pending is the number of tokens currently held.
func (a *Admission) Pending() int64 { return a.pending.Load() }

// Shed counts the requests refused since start.
func (a *Admission) Shed() uint64 { return a.shed.Load() }
