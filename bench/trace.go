package main

import (
	"time"
)

// Span names recorded by the traced replay. A request's root is
// "request.<path>"; the other names are the layer boundaries the replay
// calls across, and later in-program tracing should reuse them:
//
//	request.query, request.topk, request.ingest   root, one per request
//	engine.query          (*engine.Engine).QueryBatchCtx
//	engine.fingerprint    (*graph.QueryGraph).Fingerprint, the engine's cache key, and
//	                      TopoFingerprint on a plan-cache miss                     [replay]
//	facade.convert        the facade's conversion of engine results for the HTTP layer
//	mediator.integrate    (*mediator.Mediator).Integrate (non-live resolve)
//	sources.blast         (*sources.Aligner).Search, per matched protein   [replay]
//	sources.profile       (*sources.ProfileDB).Match, per protein and DB   [replay]
//	graph.carve           (*graph.Store).View around the exploratory query (live resolve)
//	query.run             query.Exploratory.Run
//	kernel.compile        kernel.Compile (on the /topk path; [replay] for engine misses)
//	kernel.patch          (*kernel.Plan).Patch for engine misses          [replay]
//	rank.fixed, rank.worlds, rank.adaptive, rank.propagation, rank.diffusion,
//	rank.inedge, rank.pathcount   rank.RankAllCtx per missed method       [replay]
//	rank.topk             (*rank.HybridPlanner).RankWithStatsCtx
//	graph.apply           (*graph.Store).Apply
//	wal.append            (*wal.Log).Append, inside graph.apply
//	graph.sources_reaching (*graph.Store).SourcesReaching
//	engine.invalidate     (*engine.Engine).InvalidateSources
//	mediator.integrate_all (*mediator.Mediator).IntegrateAll, live set-up (req -1)
//
// [replay] spans re-run a sub-step outside its parent's interval, right
// after the request while every other request is paused: the engine and
// the mediator do that work internally, where the benchmark cannot see
// it. They split the parent's time in the self-time accounting without
// being counted twice.

// span is one recorded interval. IDs are per request; Parent is -1 for a
// root. Start and End are nanoseconds since the replay began.
type span struct {
	Name   string             `json:"name"`
	Req    int                `json:"req"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Replay bool               `json:"replay,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// reqTrace records one request's spans. It is used by one goroutine at a
// time: the client goroutine, or an engine worker while the client waits
// for it. A nil *reqTrace records nothing, which is how spans are off.
type reqTrace struct {
	epoch time.Time
	req   int
	spans []span
	// cur is the span a callee without an explicit parent (the engine's
	// resolver, the WAL hook) attaches to.
	cur int
	// deferred sub-steps to re-run once the request has finished.
	deferred []func()
}

func (rt *reqTrace) begin(name string, parent int) int {
	if rt == nil {
		return -1
	}
	id := len(rt.spans)
	rt.spans = append(rt.spans, span{Name: name, Req: rt.req, ID: id, Parent: parent, Start: int64(time.Since(rt.epoch))})
	return id
}

func (rt *reqTrace) end(id int) {
	if rt == nil || id < 0 {
		return
	}
	rt.spans[id].End = int64(time.Since(rt.epoch))
}

func (rt *reqTrace) attr(id int, key string, v float64) {
	if rt == nil || id < 0 {
		return
	}
	if rt.spans[id].Attrs == nil {
		rt.spans[id].Attrs = map[string]float64{}
	}
	rt.spans[id].Attrs[key] = v
}

// replay runs fn now and records it as a replay span under parent.
func (rt *reqTrace) replay(name string, parent int, fn func()) {
	if rt == nil {
		return
	}
	id := rt.begin(name, parent)
	fn()
	rt.end(id)
	rt.spans[id].Replay = true
}

// later queues fn, which records replay spans, to run once the request
// has finished.
func (rt *reqTrace) later(fn func()) {
	if rt == nil {
		return
	}
	rt.deferred = append(rt.deferred, fn)
}

func (rt *reqTrace) runDeferred() {
	if rt == nil {
		return
	}
	for _, fn := range rt.deferred {
		fn()
	}
	rt.deferred = nil
}

// selfTimes returns each span's duration minus its children's, never
// below zero. Spans are one request's, indexed by ID.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}
