package rank

import (
	"context"
	"math"
	"testing"
)

// These golden tests pin the five ranking semantics to the exact values
// of Figure 4 of the paper (serial-parallel graph and Wheatstone bridge).
// Diffusion on the Wheatstone bridge is the documented exception: the
// printed figure says 0.11 but the printed equations yield 1/6; see
// DESIGN.md.

const fig4Tol = 1e-9

func TestFig4aReliability(t *testing.T) {
	qg := fig4a()
	scores, cond, err := ExactReliability(qg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scores[0]-0.5) > fig4Tol {
		t.Errorf("reliability = %v, want 0.5", scores[0])
	}
	if cond[0] != 0 {
		t.Errorf("serial-parallel graph should reduce in closed form, needed %d conditionings", cond[0])
	}
}

func TestFig4aPropagation(t *testing.T) {
	res, err := (&Propagation{}).RankCtx(context.Background(), fig4a())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scores[0]-0.75) > fig4Tol {
		t.Errorf("propagation = %v, want 0.75", res.Scores[0])
	}
}

func TestFig4aDiffusion(t *testing.T) {
	res, err := (&Diffusion{}).RankCtx(context.Background(), fig4a())
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 9; math.Abs(res.Scores[0]-want) > 1e-6 {
		t.Errorf("diffusion = %v, want %v (the 0.11 of Fig 4a)", res.Scores[0], want)
	}
}

func TestFig4aDeterministic(t *testing.T) {
	qg := fig4a()
	ie, err := InEdge{}.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if ie.Scores[0] != 2 {
		t.Errorf("inedge = %v, want 2", ie.Scores[0])
	}
	pc, err := PathCount{}.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Scores[0] != 2 {
		t.Errorf("pathcount = %v, want 2", pc.Scores[0])
	}
}

func TestFig4bReliability(t *testing.T) {
	qg := fig4b()
	scores, cond, err := ExactReliability(qg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.46875; math.Abs(scores[0]-want) > fig4Tol {
		t.Errorf("reliability = %v, want %v", scores[0], want)
	}
	// The Wheatstone bridge is the canonical graph on which the
	// reduction rules get stuck (Section 3.1.2), so factoring must have
	// been needed.
	if cond[0] == 0 {
		t.Error("Wheatstone bridge should not be closed-form reducible")
	}
}

func TestFig4bPropagation(t *testing.T) {
	res, err := (&Propagation{}).RankCtx(context.Background(), fig4b())
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.484375; math.Abs(res.Scores[0]-want) > fig4Tol {
		t.Errorf("propagation = %v, want %v", res.Scores[0], want)
	}
}

func TestFig4bDiffusion(t *testing.T) {
	// The printed equations yield 1/6 on the bridge (the figure's 0.11
	// appears to correspond to a different drawing); we pin the equation
	// semantics.
	res, err := (&Diffusion{}).RankCtx(context.Background(), fig4b())
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 6; math.Abs(res.Scores[0]-want) > 1e-6 {
		t.Errorf("diffusion = %v, want %v", res.Scores[0], want)
	}
}

func TestFig4bDeterministic(t *testing.T) {
	qg := fig4b()
	ie, err := InEdge{}.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if ie.Scores[0] != 2 {
		t.Errorf("inedge = %v, want 2", ie.Scores[0])
	}
	pc, err := PathCount{}.RankCtx(context.Background(), qg)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Scores[0] != 3 {
		t.Errorf("pathcount = %v, want 3 (s-a-u, s-b-u, s-a-b-u)", pc.Scores[0])
	}
}

func TestFig4PropagationExceedsReliability(t *testing.T) {
	// Section 3.2: "the propagation scores will always be bigger or
	// equal to reliability scores."
	for _, tc := range []struct {
		name string
	}{{"4a"}, {"4b"}} {
		qg := fig4a()
		if tc.name == "4b" {
			qg = fig4b()
		}
		rel, _, err := ExactReliability(qg, 0)
		if err != nil {
			t.Fatal(err)
		}
		prop, err := (&Propagation{}).RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		if prop.Scores[0] < rel[0]-fig4Tol {
			t.Errorf("%s: propagation %v < reliability %v", tc.name, prop.Scores[0], rel[0])
		}
	}
}

func TestFig4MonteCarloMatchesExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"4a", 0.5},
		{"4b", 0.46875},
	} {
		qg := fig4a()
		if tc.name == "4b" {
			qg = fig4b()
		}
		mc := &MonteCarlo{Trials: 200000, Seed: 1}
		res, err := mc.RankCtx(context.Background(), qg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Scores[0]-tc.want) > 0.01 {
			t.Errorf("%s: MC estimate %v too far from %v", tc.name, res.Scores[0], tc.want)
		}
	}
}
