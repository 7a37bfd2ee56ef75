package rank

import (
	"context"
	"sync"
	"testing"
	"time"
)

// stepCtx is a context whose Err() flips to Canceled after limit calls:
// a deterministic way to expire a deadline at an exact batch boundary,
// with no wall-clock flakiness.
type stepCtx struct {
	mu    sync.Mutex
	calls int
	limit int
	done  chan struct{}
}

func newStepCtx(limit int) *stepCtx {
	return &stepCtx{limit: limit, done: make(chan struct{})}
}

func (c *stepCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCtx) Done() <-chan struct{}       { return c.done }
func (c *stepCtx) Value(key any) any           { return nil }
func (c *stepCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// expiredCtx returns a context whose deadline has already passed.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// checkTruncated asserts the invariant every truncated result must
// satisfy: Truncated set, intervals present, and Lo[i] ≤ score ≤ Hi[i]
// within [0,1] for every answer.
func checkTruncated(t *testing.T, res Result) {
	t.Helper()
	if !res.Truncated {
		t.Fatalf("expected Truncated result")
	}
	if res.Lo == nil || res.Hi == nil {
		t.Fatalf("truncated result missing intervals: Lo=%v Hi=%v", res.Lo, res.Hi)
	}
	for i, s := range res.Scores {
		if res.Lo[i] < 0 || res.Hi[i] > 1 || res.Lo[i] > res.Hi[i] {
			t.Fatalf("answer %d: malformed interval [%g, %g]", i, res.Lo[i], res.Hi[i])
		}
		if s < res.Lo[i] || s > res.Hi[i] {
			t.Fatalf("answer %d: score %g outside interval [%g, %g]", i, s, res.Lo[i], res.Hi[i])
		}
	}
}

// A completed run under a cancellable context must be bit-identical to
// the historical uninterruptible run: chunking consumes the kernels'
// RNG streams exactly like a one-shot call.
func TestMonteCarloCtxCompletedBitIdentical(t *testing.T) {
	qg := benchGraph(40, 12)
	for _, tc := range []struct {
		name string
		mc   *MonteCarlo
	}{
		{"scalar", &MonteCarlo{Trials: 9000, Seed: 7}},
		{"worlds", &MonteCarlo{Trials: 9000, Seed: 7, Worlds: true}},
		{"workers", &MonteCarlo{Trials: 9000, Seed: 7, Workers: 3}},
		{"worlds-workers", &MonteCarlo{Trials: 9000, Seed: 7, Worlds: true, Workers: 3}},
		{"reduce", &MonteCarlo{Trials: 9000, Seed: 7, Reduce: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.mc.RankCtx(context.Background(), qg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got, err := tc.mc.RankCtx(ctx, qg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Truncated {
				t.Fatalf("uncancelled ctx produced a truncated result")
			}
			for i := range want.Scores {
				if got.Scores[i] != want.Scores[i] {
					t.Fatalf("answer %d: ctx run %v != plain run %v", i, got.Scores[i], want.Scores[i])
				}
			}
		})
	}
}

func TestMonteCarloCtxExpiredBeforeStart(t *testing.T) {
	qg := benchGraph(10, 5)
	for _, tc := range []struct {
		name string
		mc   *MonteCarlo
	}{
		{"scalar", &MonteCarlo{Trials: 5000, Seed: 3}},
		{"worlds", &MonteCarlo{Trials: 5000, Seed: 3, Worlds: true}},
		{"workers", &MonteCarlo{Trials: 5000, Seed: 3, Workers: 2}},
		{"naive", &MonteCarlo{Trials: 5000, Seed: 3, Naive: true}},
		{"reduce", &MonteCarlo{Trials: 5000, Seed: 3, Reduce: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.mc.RankCtx(expiredCtx(t), qg)
			if err != nil {
				t.Fatal(err)
			}
			checkTruncated(t, res)
			for i := range res.Scores {
				if res.Scores[i] != 0 {
					t.Fatalf("answer %d: zero-trial truncation scored %g, want 0", i, res.Scores[i])
				}
				if res.Hi[i] != 1 {
					t.Fatalf("answer %d: zero-trial truncation Hi=%g, want vacuous 1", i, res.Hi[i])
				}
			}
		})
	}
}

// A deadline that fires between chunks yields the partial tallies, with
// scores normalized by the trials that actually ran.
func TestMonteCarloCtxMidRunPartial(t *testing.T) {
	qg := benchGraph(150, 50) // big enough that BatchHint < Trials
	for _, tc := range []struct {
		name string
		mc   *MonteCarlo
	}{
		{"scalar", &MonteCarlo{Trials: 200000, Seed: 11}},
		{"worlds", &MonteCarlo{Trials: 200000, Seed: 11, Worlds: true}},
		{"workers", &MonteCarlo{Trials: 200000, Seed: 11, Workers: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.mc.RankCtx(newStepCtx(2), qg)
			if err != nil {
				t.Fatal(err)
			}
			checkTruncated(t, res)
			// At least one chunk ran before the flip, so the partial
			// estimates must carry signal: the source-adjacent answers of
			// benchGraph have nonzero reliability.
			any := false
			for _, s := range res.Scores {
				if s > 0 {
					any = true
				}
			}
			if !any {
				t.Fatalf("mid-run truncation reported all-zero scores: no chunk ran")
			}
		})
	}
}

func TestAdaptiveMonteCarloCtx(t *testing.T) {
	qg := benchGraph(60, 20)
	a := &AdaptiveMonteCarlo{Eps: 1e-9, Delta: 1e-6, Batch: 500, MaxTrials: 1 << 20, Seed: 5}
	res, err := a.RankCtx(newStepCtx(3), qg)
	if err != nil {
		t.Fatal(err)
	}
	checkTruncated(t, res)

	res, err = a.RankCtx(expiredCtx(t), qg)
	if err != nil {
		t.Fatal(err)
	}
	checkTruncated(t, res)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	quick := &AdaptiveMonteCarlo{Seed: 5, MaxTrials: 2000}
	res, err = quick.RankCtx(ctx, qg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("uncancelled adaptive run reported Truncated")
	}
}

func TestTopKRacerCtx(t *testing.T) {
	qg := benchGraph(60, 20)
	r := &TopKRacer{K: 5, Eps: 1e-9, Delta: 1e-6, Batch: 500, MaxTrials: 1 << 20, Seed: 5}

	// Mid-race deadline: the interval state of the completed rounds is
	// the partial result.
	res, rs, err := r.RankWithStatsCtx(newStepCtx(3), qg)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Truncated {
		t.Fatalf("expected RaceStats.Truncated")
	}
	checkTruncated(t, res)
	if rs.Rounds == 0 {
		t.Fatalf("stepCtx(3) should have allowed rounds to run")
	}

	// Deadline before round one: every candidate still carries the
	// vacuous-but-valid [0,1].
	res, _, err = r.RankWithStatsCtx(expiredCtx(t), qg)
	if err != nil {
		t.Fatal(err)
	}
	checkTruncated(t, res)

	// Worlds path.
	rw := &TopKRacer{K: 5, Eps: 1e-9, Delta: 1e-6, Batch: 500, MaxTrials: 1 << 20, Seed: 5, Worlds: true}
	res, _, err = rw.RankWithStatsCtx(newStepCtx(3), qg)
	if err != nil {
		t.Fatal(err)
	}
	checkTruncated(t, res)
}

func TestHybridPlannerCtx(t *testing.T) {
	qg := benchGraph(60, 20)
	p := &HybridPlanner{K: 5, Eps: 1e-9, Delta: 1e-6, Batch: 500, MaxTrials: 1 << 20, Seed: 5}
	res, err := p.RankCtx(expiredCtx(t), qg)
	if err != nil {
		t.Fatal(err)
	}
	checkTruncated(t, res)

	res, err = p.RankCtx(newStepCtx(4), qg)
	if err != nil {
		t.Fatal(err)
	}
	checkTruncated(t, res)

	// Exact answers probed before the deadline keep zero-width bounds.
	for i := range res.Scores {
		if res.Exact != nil && res.Exact[i] && res.Lo[i] != res.Hi[i] {
			t.Fatalf("exact answer %d widened to [%g, %g]", i, res.Lo[i], res.Hi[i])
		}
	}
}

func TestRankAllCtx(t *testing.T) {
	qg := benchGraph(30, 10)
	out, err := RankAllCtx(expiredCtx(t), qg, AllOptions{Trials: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel, ok := out["reliability"]
	if !ok {
		t.Fatalf("missing reliability result")
	}
	checkTruncated(t, rel)
	// The deterministic methods finish regardless of the deadline.
	for _, name := range []string{"propagation", "diffusion", "inedge", "pathcount"} {
		res, ok := out[name]
		if !ok {
			t.Fatalf("missing %s result", name)
		}
		if res.Truncated {
			t.Fatalf("%s reported Truncated", name)
		}
	}
}
