package biorank

import (
	"context"
	"errors"
	"testing"
	"time"

	"biorank/internal/engine"
)

// chainAnswers builds a facade answer set big enough that a truncated
// Monte Carlo run is distinguishable from a completed one.
func chainAnswers(t *testing.T) *Answers {
	t.Helper()
	g := NewGraph()
	p := g.AddRecord("P", "x", 1)
	for i := 0; i < 20; i++ {
		mid := g.AddRecord("G", "g", 0.7)
		f := g.AddRecord("F", string(rune('a'+i)), 0.9)
		g.AddLink(p, mid, 0.8)
		g.AddLink(mid, f, 0.8)
	}
	ans, err := g.Explore("x", "P", "F")
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

func expiredContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	t.Cleanup(cancel)
	return ctx
}

func TestFacadeRankCtxTruncated(t *testing.T) {
	ans := chainAnswers(t)
	scored, truncated, err := ans.RankCtx(expiredContext(t), Reliability, Options{Trials: 10000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("expired deadline did not truncate")
	}
	for _, a := range scored {
		if !a.HasBounds {
			t.Fatalf("truncated answer missing bounds: %+v", a)
		}
		if a.Lo > a.Score || a.Score > a.Hi || a.Lo < 0 || a.Hi > 1 {
			t.Fatalf("invalid interval: %+v", a)
		}
	}
	// A cancellable context that is never cancelled completes and
	// matches the background (one-call) run bitwise.
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, truncated, err := ans.RankCtx(live, Reliability, Options{Trials: 2000, Seed: 3})
	if err != nil || truncated {
		t.Fatalf("cancellable run: truncated=%v err=%v", truncated, err)
	}
	want, _, err := ans.RankCtx(context.Background(), Reliability, Options{Trials: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d: cancellable run %+v != background %+v", i, got[i], want[i])
		}
	}
}

func TestFacadeRankAllCtxTruncated(t *testing.T) {
	ans := chainAnswers(t)
	rankings, truncated, err := ans.RankAllCtx(expiredContext(t), Options{Trials: 10000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !truncated[Reliability] {
		t.Fatal("reliability not truncated under expired deadline")
	}
	for _, m := range []Method{InEdge, PathCount, Propagation, Diffusion} {
		if truncated[m] {
			t.Fatalf("deterministic method %s reported truncated", m)
		}
		if len(rankings[m]) != ans.Len() {
			t.Fatalf("%s: incomplete ranking", m)
		}
	}
}

func TestFacadeTopKCtxTruncated(t *testing.T) {
	ans := chainAnswers(t)
	for _, planner := range []bool{false, true} {
		res, err := ans.TopKCtx(expiredContext(t), 3, Options{Trials: 10000, Seed: 3, Planner: planner})
		if err != nil {
			t.Fatalf("planner=%v: %v", planner, err)
		}
		if !res.Truncated {
			t.Fatalf("planner=%v: expired deadline did not truncate", planner)
		}
		for _, a := range res.Answers {
			if a.Lo > a.Score || a.Score > a.Hi {
				t.Fatalf("planner=%v: invalid interval %+v", planner, a)
			}
		}
		// Completed races report Truncated false.
		res, err = ans.TopKCtx(context.Background(), 3, Options{Trials: 500, Seed: 3, Planner: planner})
		if err != nil || res.Truncated {
			t.Fatalf("planner=%v background race: truncated=%v err=%v", planner, res.Truncated, err)
		}
	}
}

func TestConfigureEngine(t *testing.T) {
	sys, err := NewDemoSystem(7)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.ConfigureEngine(EngineConfig{Workers: 2, MaxInFlight: 1, MaxQueue: 1}); err != nil {
		t.Fatal(err)
	}
	if got := sys.EngineStats().Capacity; got != 2 {
		t.Fatalf("Capacity = %d, want 2 (MaxInFlight+MaxQueue)", got)
	}
	// Once the engine is running the configuration is frozen.
	if err := sys.ConfigureEngine(EngineConfig{}); err == nil {
		t.Fatal("ConfigureEngine after engine start did not fail")
	}
}

func TestQueryBatchCtxTimeoutTruncates(t *testing.T) {
	sys, err := NewDemoSystem(7)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	protein := sys.Proteins()[0]
	reqs := []BatchRequest{{
		Protein: protein,
		Methods: []Method{Reliability},
		Options: Options{Trials: 200000, Seed: 5},
		Timeout: time.Nanosecond,
	}}
	res := sys.QueryBatchCtx(context.Background(), reqs)[0]
	if res.Err != nil {
		t.Fatalf("timed-out request errored: %v", res.Err)
	}
	if !res.Truncated[Reliability] {
		t.Fatal("nanosecond timeout did not truncate reliability")
	}
	if len(res.Rankings[Reliability]) == 0 {
		t.Fatal("truncated request returned no ranking")
	}
	// Without a timeout the same request completes and is not truncated.
	reqs[0].Timeout = 0
	reqs[0].Options.Trials = 500
	res = sys.QueryBatchCtx(context.Background(), reqs)[0]
	if res.Err != nil || res.Truncated[Reliability] {
		t.Fatalf("untimed request: truncated=%v err=%v", res.Truncated[Reliability], res.Err)
	}
}

func TestRetryAfterHelper(t *testing.T) {
	oe := &engine.OverloadError{RetryAfter: 250 * time.Millisecond}
	if !errors.Is(oe, ErrOverloaded) {
		t.Fatal("OverloadError does not match biorank.ErrOverloaded")
	}
	d, ok := RetryAfter(oe)
	if !ok || d != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v, %v", d, ok)
	}
	if _, ok := RetryAfter(errors.New("other")); ok {
		t.Fatal("RetryAfter matched a non-overload error")
	}
}
