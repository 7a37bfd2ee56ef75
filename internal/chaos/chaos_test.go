package chaos

import (
	"context"
	"errors"
	"testing"
	"time"

	"biorank/internal/graph"
)

func tinyGraph() *graph.QueryGraph {
	g := graph.New(2, 1)
	s := g.AddNode("Q", "s", 1)
	a := g.AddNode("A", "a", 0.5)
	g.AddEdge(s, a, "e", 1)
	qg, err := graph.NewQueryGraph(g, s, []graph.NodeID{a})
	if err != nil {
		panic(err)
	}
	return qg
}

func passthrough() Inner {
	qg := tinyGraph()
	return InnerFunc(func(context.Context, string) (*graph.QueryGraph, error) { return qg, nil })
}

func TestPassthrough(t *testing.T) {
	r := &Resolver{Inner: passthrough()}
	for i := 0; i < 5; i++ {
		if _, err := r.ResolveCtx(context.Background(), "q"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if r.Calls() != 5 || r.Failures() != 0 || r.Panics() != 0 {
		t.Fatalf("counters calls=%d failures=%d panics=%d", r.Calls(), r.Failures(), r.Panics())
	}
}

func TestErrSchedule(t *testing.T) {
	r := &Resolver{Inner: passthrough(), ErrEvery: 3}
	var failed int
	for i := 1; i <= 9; i++ {
		_, err := r.ResolveCtx(context.Background(), "q")
		if i%3 == 0 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: want ErrInjected, got %v", i, err)
			}
			failed++
		} else if err != nil {
			t.Fatalf("call %d: unexpected %v", i, err)
		}
	}
	if failed != 3 || r.Failures() != 3 {
		t.Fatalf("failed=%d Failures()=%d, want 3", failed, r.Failures())
	}
}

func TestPanicSchedule(t *testing.T) {
	r := &Resolver{Inner: passthrough(), PanicEvery: 2}
	if _, err := r.ResolveCtx(context.Background(), "q"); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("call 2 did not panic")
			}
		}()
		r.ResolveCtx(context.Background(), "q") //nolint:errcheck // panics
	}()
	if r.Panics() != 1 {
		t.Fatalf("Panics() = %d, want 1", r.Panics())
	}
}

func TestLatencyHonorsCancellation(t *testing.T) {
	r := &Resolver{Inner: passthrough(), Latency: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := r.ResolveCtx(ctx, "q")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancelled latency wait blocked")
	}
}
