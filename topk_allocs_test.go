//go:build !race

package biorank

import (
	"context"
	"testing"
)

// TestTopKFreshHandleAllocs pins one compiled plan per query graph:
// System.Query hands out a fresh Answers on every call, but over the
// memoized graph, so a /topk race through a fresh handle must not
// compile the graph again. It may allocate only the handle itself more
// than a race through a reused one. The race detector drops sync.Pool
// items at random, which moves the planner's allocation count by
// hundreds, so this file builds without -race only; CI runs it in a
// plain step.
func TestTopKFreshHandleAllocs(t *testing.T) {
	s, err := NewDemoSystem(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.EnableLive(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	o := Options{Planner: true, Trials: 10000, Seed: 1}
	reused, err := s.Query("ABCC8")
	if err != nil {
		t.Fatal(err)
	}
	race := func(a *Answers) {
		if _, err := a.TopKCtx(ctx, 5, o); err != nil {
			t.Fatal(err)
		}
	}
	race(reused)
	viaReused := testing.AllocsPerRun(20, func() { race(reused) })
	viaFresh := testing.AllocsPerRun(20, func() {
		a, err := s.Query("ABCC8")
		if err != nil {
			t.Fatal(err)
		}
		race(a)
	})
	t.Logf("%.0f allocs per race through a fresh handle, %.0f through a reused one", viaFresh, viaReused)
	if viaFresh > viaReused+3 {
		t.Errorf("a race through a fresh handle allocates %.0f times, %.0f more than through a reused one: it compiles the graph again",
			viaFresh, viaFresh-viaReused)
	}
}
