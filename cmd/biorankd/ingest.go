package main

import (
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"biorank"
)

// ingester is the background refresher of a live server: delta batches
// submitted with "async": true are queued here and applied between
// queries by a dedicated goroutine, so slow writers never hold an HTTP
// connection open and the store sees one writer at a time. The queue is
// bounded; when it is full the submitting request is shed with 429, the
// same overload contract as ranking admission control.
type ingester struct {
	sys *biorank.System

	mu     sync.Mutex
	closed bool
	queue  chan []biorank.IngestDelta
	done   chan struct{}

	enqueued    atomic.Uint64
	applied     atomic.Uint64
	errors      atomic.Uint64
	dropped     atomic.Uint64
	invalidated atomic.Int64
}

func newIngester(sys *biorank.System, queueCap int) *ingester {
	if queueCap < 1 {
		queueCap = 1
	}
	ing := &ingester{
		sys:   sys,
		queue: make(chan []biorank.IngestDelta, queueCap),
		done:  make(chan struct{}),
	}
	go ing.run()
	return ing
}

// run applies queued batches until the queue is closed, then flushes
// whatever is left: a drain never drops an accepted delta.
func (ing *ingester) run() {
	defer close(ing.done)
	for batch := range ing.queue {
		res, err := ing.sys.Ingest(batch...)
		if err != nil {
			ing.errors.Add(1)
			log.Printf("biorankd: async ingest: %v", err)
		}
		ing.applied.Add(uint64(res.Deltas))
		ing.invalidated.Add(int64(res.Invalidated))
	}
}

// enqueue submits a batch without blocking; false means the queue is
// full or the ingester is draining.
func (ing *ingester) enqueue(batch []biorank.IngestDelta) bool {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.closed {
		return false
	}
	select {
	case ing.queue <- batch:
		ing.enqueued.Add(1)
		return true
	default:
		ing.dropped.Add(1)
		return false
	}
}

// stop closes the queue and waits for the refresher to flush it. Safe to
// call more than once.
func (ing *ingester) stop() {
	ing.mu.Lock()
	if !ing.closed {
		ing.closed = true
		close(ing.queue)
	}
	ing.mu.Unlock()
	<-ing.done
}

// stats snapshots the refresher's counters for /stats.
func (ing *ingester) stats() ingestStats {
	return ingestStats{
		Applied:     ing.applied.Load(),
		Capacity:    cap(ing.queue),
		Dropped:     ing.dropped.Load(),
		Enqueued:    ing.enqueued.Load(),
		Errors:      ing.errors.Load(),
		Invalidated: ing.invalidated.Load(),
		Queued:      len(ing.queue),
	}
}

// ingestRequest is the wire form of /ingest: a batch of deltas (or a
// single delta without the "deltas" wrapper) plus the async toggle.
type ingestRequest struct {
	Deltas []biorank.IngestDelta `json:"deltas,omitempty"`
	biorank.IngestDelta
	// Async queues the batch for the background refresher instead of
	// applying it inline; the response is then 202 Accepted.
	Async bool `json:"async,omitempty"`
}

// handleIngest applies source deltas to the live graph. Synchronous
// requests return the full IngestResult (affected sources, invalidated
// cache entries, per-source epochs); asynchronous ones are queued for
// the background refresher and acknowledged with 202.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// decodeRequest answers every method but POST with 405, which comes
	// before the 409.
	if r.Method == http.MethodPost && !s.sys.Live() {
		httpError(w, http.StatusConflict, fmt.Errorf("server is not live; restart with -live"))
		return
	}
	var req ingestRequest
	if !decodeRequest(w, r, &req, nil) {
		return
	}
	deltas := req.Deltas
	if len(deltas) == 0 && (req.Source != "" || len(req.Ops) > 0) {
		deltas = []biorank.IngestDelta{req.IngestDelta}
	}
	if len(deltas) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("deltas are required"))
		return
	}
	if req.Async {
		if !s.ready.Load() {
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("draining"))
			return
		}
		if s.ingest == nil || !s.ingest.enqueue(deltas) {
			shedResponse(w, time.Second, errorBody{"ingest queue full"})
			return
		}
		writeJSON(w, http.StatusAccepted, ingestAccepted{Accepted: len(deltas), Queued: len(s.ingest.queue)})
		return
	}
	res, err := s.sys.Ingest(deltas...)
	if err != nil {
		// Batches before the failing one stayed applied; report both the
		// error and the partial effect so the caller can reconcile.
		writeJSON(w, http.StatusUnprocessableEntity, ingestFailed{Error: err.Error(), Result: res})
		return
	}
	writeJSON(w, http.StatusOK, res)
}
