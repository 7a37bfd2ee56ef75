// Package chaos is BioRank's fault-injection harness: a Resolver
// wrapper that injects latency, errors, and panics on a deterministic
// schedule, so the serving stack's failure paths — per-request error
// isolation, panic recovery, deadline truncation, load shedding — can
// be exercised by ordinary tests and load generators instead of
// waiting for production to exercise them first. FaultFS (fs.go)
// extends the harness below the stack with deterministic disk faults
// for the write-ahead log's crash-recovery suite.
//
// The package deliberately imports only internal/graph and internal/wal.
// The engine accepts any implementation of its Resolver interface
// structurally, so chaos.Resolver plugs into engine.New (and the
// facade) without a dependency edge that would cycle through the
// engine's own tests.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"biorank/internal/graph"
)

// ErrInjected is the default error injected by a Resolver with
// ErrEvery set and no custom Err.
var ErrInjected = errors.New("chaos: injected failure")

// Inner is the resolver being wrapped — structurally identical to
// engine.Resolver.
type Inner interface {
	ResolveCtx(ctx context.Context, source string) (*graph.QueryGraph, error)
}

// InnerFunc adapts a function to Inner.
type InnerFunc func(ctx context.Context, source string) (*graph.QueryGraph, error)

// ResolveCtx implements Inner.
func (f InnerFunc) ResolveCtx(ctx context.Context, source string) (*graph.QueryGraph, error) {
	return f(ctx, source)
}

// Resolver wraps an Inner resolver with deterministic fault injection.
// The zero schedule (all fields zero) is a transparent pass-through.
// Faults are keyed to a global call counter, so "every Nth request"
// schedules are exact regardless of concurrency. Safe for concurrent
// use when Inner is.
//
// Order of operations per call: latency first (context-aware — a
// cancelled wait returns ctx.Err() immediately), then the panic
// schedule, then the error schedule, then the inner resolver.
type Resolver struct {
	// Inner is the resolver faults are layered over. May be nil only
	// if every call is scheduled to fault.
	Inner Inner
	// Latency delays every call, honoring context cancellation during
	// the wait.
	Latency time.Duration
	// ErrEvery makes every Nth call (1-based) return Err without
	// reaching Inner; 0 disables.
	ErrEvery int
	// Err is the injected error; nil means ErrInjected.
	Err error
	// PanicEvery makes every Nth call (1-based) panic before reaching
	// Inner; 0 disables. Panics take precedence over errors when both
	// schedules hit the same call.
	PanicEvery int

	calls    atomic.Uint64
	failures atomic.Uint64
	panics   atomic.Uint64
}

// ResolveCtx implements the engine's Resolver shape: injected latency
// is interruptible by the context, which then reaches Inner unchanged.
func (r *Resolver) ResolveCtx(ctx context.Context, source string) (*graph.QueryGraph, error) {
	n := r.calls.Add(1)
	if r.Latency > 0 {
		t := time.NewTimer(r.Latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	if r.PanicEvery > 0 && n%uint64(r.PanicEvery) == 0 {
		r.panics.Add(1)
		panic(fmt.Sprintf("chaos: injected panic on call %d (source %q)", n, source))
	}
	if r.ErrEvery > 0 && n%uint64(r.ErrEvery) == 0 {
		r.failures.Add(1)
		if r.Err != nil {
			return nil, r.Err
		}
		return nil, ErrInjected
	}
	return r.Inner.ResolveCtx(ctx, source)
}

// Calls returns how many resolutions were attempted.
func (r *Resolver) Calls() uint64 { return r.calls.Load() }

// Failures returns how many calls were failed by the error schedule.
func (r *Resolver) Failures() uint64 { return r.failures.Load() }

// Panics returns how many calls were killed by the panic schedule.
func (r *Resolver) Panics() uint64 { return r.panics.Load() }
