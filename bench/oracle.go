package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"biorank"
	"biorank/internal/rank"
)

// Wire forms of biorankd's responses, as far as the checks read them.

type wireAnswer struct {
	Kind   string   `json:"kind"`
	Label  string   `json:"label"`
	Score  float64  `json:"score"`
	RankLo int      `json:"rankLo"`
	RankHi int      `json:"rankHi"`
	Lo     *float64 `json:"lo,omitempty"`
	Hi     *float64 `json:"hi,omitempty"`
	Exact  bool     `json:"exact,omitempty"`
}

type queryResult struct {
	Protein   string                  `json:"protein"`
	Error     string                  `json:"error,omitempty"`
	Answers   int                     `json:"answers,omitempty"`
	Rankings  map[string][]wireAnswer `json:"rankings,omitempty"`
	Truncated bool                    `json:"truncated,omitempty"`
}

type queryResponse struct {
	Results []queryResult `json:"results"`
}

type topkAnswer struct {
	Kind   string  `json:"kind"`
	Label  string  `json:"label"`
	Score  float64 `json:"score"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Trials int64   `json:"trials"`
	Exact  bool    `json:"exact,omitempty"`
}

type topkResponse struct {
	K               int          `json:"k"`
	Candidates      int          `json:"candidates"`
	CandidateTrials int64        `json:"candidateTrials"`
	ExactAnswers    int          `json:"exactAnswers"`
	Answers         []topkAnswer `json:"answers"`
	Truncated       bool         `json:"truncated,omitempty"`
}

type ingestResponse struct {
	Deltas          int      `json:"deltas"`
	ProbChanges     int      `json:"probChanges"`
	ProbOnly        bool     `json:"probOnly"`
	Version         uint64   `json:"version"`
	AffectedSources []string `json:"affectedSources,omitempty"`
}

// parsed is a decoded response: exactly one field is set.
type parsed struct {
	query  *queryResult
	topk   *topkResponse
	ingest *ingestResponse
}

// checkShape runs the checks every response must pass on its own: HTTP
// 200, no per-result error, not truncated, every requested method
// present, scores sorted descending, lo <= score <= hi wherever bounds are
// reported.
func checkShape(o observation) (parsed, error) {
	if o.err != nil {
		return parsed{}, o.err
	}
	if o.status != 200 {
		return parsed{}, fmt.Errorf("HTTP %d: %.200s", o.status, o.body)
	}
	req := o.op.req
	switch req.path {
	case "/query":
		var resp queryResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return parsed{}, fmt.Errorf("decode: %w", err)
		}
		if len(resp.Results) != 1 {
			return parsed{}, fmt.Errorf("%d results, want 1", len(resp.Results))
		}
		r := &resp.Results[0]
		if r.Error != "" {
			return parsed{}, fmt.Errorf("result error: %s", r.Error)
		}
		if r.Truncated {
			return parsed{}, errors.New("truncated")
		}
		want := req.methods
		if len(want) == 0 {
			want = rank.MethodNames
		}
		if len(r.Rankings) != len(want) {
			return parsed{}, fmt.Errorf("%d rankings, want %d", len(r.Rankings), len(want))
		}
		for _, m := range want {
			ranking, ok := r.Rankings[m]
			if !ok {
				return parsed{}, fmt.Errorf("method %s missing", m)
			}
			if len(ranking) != r.Answers {
				return parsed{}, fmt.Errorf("%s: %d ranked answers, want %d", m, len(ranking), r.Answers)
			}
			for i, a := range ranking {
				if i > 0 && a.Score > ranking[i-1].Score {
					return parsed{}, fmt.Errorf("%s: scores not descending at %d", m, i)
				}
				if a.Lo != nil && a.Hi != nil && !(*a.Lo <= a.Score && a.Score <= *a.Hi) {
					return parsed{}, fmt.Errorf("%s: %s score %v outside [%v, %v]", m, a.Label, a.Score, *a.Lo, *a.Hi)
				}
			}
		}
		return parsed{query: r}, nil
	case "/topk":
		var r topkResponse
		if err := json.Unmarshal(o.body, &r); err != nil {
			return parsed{}, fmt.Errorf("decode: %w", err)
		}
		if r.Truncated {
			return parsed{}, errors.New("truncated")
		}
		if len(r.Answers) != min(req.k, r.Candidates) {
			return parsed{}, fmt.Errorf("%d answers, want min(k=%d, %d candidates)", len(r.Answers), req.k, r.Candidates)
		}
		for i, a := range r.Answers {
			if i > 0 && a.Score > r.Answers[i-1].Score {
				return parsed{}, fmt.Errorf("scores not descending at %d", i)
			}
			if !(a.Lo <= a.Score && a.Score <= a.Hi) {
				return parsed{}, fmt.Errorf("%s score %v outside [%v, %v]", a.Label, a.Score, a.Lo, a.Hi)
			}
		}
		return parsed{topk: &r}, nil
	case "/ingest":
		var r ingestResponse
		if err := json.Unmarshal(o.body, &r); err != nil {
			return parsed{}, fmt.Errorf("decode: %w", err)
		}
		if r.Deltas != 1 || !r.ProbOnly {
			return parsed{}, fmt.Errorf("ingest applied %d deltas (probOnly %v), want 1 probability-only", r.Deltas, r.ProbOnly)
		}
		return parsed{ingest: &r}, nil
	}
	return parsed{}, fmt.Errorf("unknown path %s", req.path)
}

// oracle recomputes responses in process through the public facade on a
// system built like the server's.
type oracle struct{ sys *biorank.System }

func newOracle(w *workload) (*oracle, error) {
	sys, err := biorank.NewDemoSystem(demoSeed)
	if err != nil {
		return nil, err
	}
	if w.live {
		if err := sys.EnableLive(); err != nil {
			return nil, err
		}
	}
	return &oracle{sys: sys}, nil
}

func (or *oracle) close() { or.sys.Close() }

// verify compares a shape-checked response with the oracle's answer, bit
// for bit. An /ingest is applied to the oracle system, so ingests must be
// verified in the order the server acknowledged them.
func (or *oracle) verify(req request, got parsed) error {
	switch req.path {
	case "/query":
		ans, err := or.sys.Query(req.protein)
		if err != nil {
			return err
		}
		methods := make([]biorank.Method, len(req.methods))
		for i, m := range req.methods {
			methods[i] = biorank.Method(m)
		}
		want, err := ans.RankAll(req.opts, methods...)
		if err != nil {
			return err
		}
		for m, sa := range want {
			if err := sameRanking(got.query.Rankings[string(m)], sa); err != nil {
				return fmt.Errorf("%s: %w", m, err)
			}
		}
		return nil
	case "/topk":
		ans, err := or.sys.Query(req.protein)
		if err != nil {
			return err
		}
		want, err := ans.TopK(req.k, req.opts)
		if err != nil {
			return err
		}
		return sameTopK(got.topk, want)
	case "/ingest":
		want, err := or.sys.Ingest(req.delta)
		if err != nil {
			return fmt.Errorf("oracle ingest: %w", err)
		}
		g := got.ingest
		if g.Version != want.Version || g.ProbChanges != want.ProbChanges || !slices.Equal(g.AffectedSources, want.AffectedSources) {
			return fmt.Errorf("ingest result (version %d, %d changes, affected %v), oracle (version %d, %d changes, affected %v)",
				g.Version, g.ProbChanges, g.AffectedSources, want.Version, want.ProbChanges, want.AffectedSources)
		}
		return nil
	}
	return fmt.Errorf("unknown path %s", req.path)
}

func sameRanking(got []wireAnswer, want []biorank.ScoredAnswer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, oracle %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		same := g.Kind == w.Kind && g.Label == w.Label && sameFloat(g.Score, w.Score) &&
			g.RankLo == w.RankLo && g.RankHi == w.RankHi && g.Exact == w.Exact &&
			(g.Lo != nil) == w.HasBounds && (g.Hi != nil) == w.HasBounds
		if same && w.HasBounds {
			same = sameFloat(*g.Lo, w.Lo) && sameFloat(*g.Hi, w.Hi)
		}
		if !same {
			return fmt.Errorf("answer %d is %s %v, oracle %s %v", i, g.Label, g.Score, w.Label, w.Score)
		}
	}
	return nil
}

func sameTopK(got *topkResponse, want *biorank.TopKResult) error {
	if got.Candidates != want.Candidates || got.CandidateTrials != want.CandidateTrials || got.ExactAnswers != want.ExactAnswers {
		return fmt.Errorf("race (%d candidates, %d candidate trials, %d exact), oracle (%d, %d, %d)",
			got.Candidates, got.CandidateTrials, got.ExactAnswers, want.Candidates, want.CandidateTrials, want.ExactAnswers)
	}
	if len(got.Answers) != len(want.Answers) {
		return fmt.Errorf("%d answers, oracle %d", len(got.Answers), len(want.Answers))
	}
	for i, w := range want.Answers {
		g := got.Answers[i]
		if g.Kind != w.Kind || g.Label != w.Label || !sameFloat(g.Score, w.Score) || !sameFloat(g.Lo, w.Lo) ||
			!sameFloat(g.Hi, w.Hi) || g.Trials != w.Trials || g.Exact != w.Exact {
			return fmt.Errorf("answer %d is %s %v [%v, %v], oracle %s %v [%v, %v]", i, g.Label, g.Score, g.Lo, g.Hi, w.Label, w.Score, w.Lo, w.Hi)
		}
	}
	return nil
}

// sameFloat is bit identity; JSON round-trips float64 exactly.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// verdict tallies the output checks of a run.
type verdict struct {
	attempted, failed int
	notes             []string // the first few failures, for the log
}

// record counts one checked operation.
func (v *verdict) record(o op, err error) {
	v.attempted++
	if err == nil {
		return
	}
	v.failed++
	if len(v.notes) < 5 {
		v.notes = append(v.notes, fmt.Sprintf("%s #%d/%d: %v", o.req.path, o.stream, o.index, err))
	}
}

// check runs the output checks over everything a run sent, marking each
// observation ok or not. Every response gets the shape checks. Responses
// at kept stream positions, those divisible by every, are recomputed by
// the oracle. For a durable workload, connection B's stream is the only
// writer: its acknowledged ingests are applied to the oracle in order, so
// B's kept reads are verified against the exact state they saw, while A's
// reads, which race with the writes, get the shape checks only. The
// probes, sent once the server was idle, are all verified against the
// final state.
func check(w *workload, obs, probes []observation, every int) (verdict, error) {
	or, err := newOracle(w)
	if err != nil {
		return verdict{}, fmt.Errorf("build oracle: %w", err)
	}
	defer or.close()
	var v verdict
	verifyAll := func(list []observation, exact func(op) bool) {
		for i := range list {
			o := &list[i]
			p, err := checkShape(*o)
			if err == nil && exact(o.op) {
				err = or.verify(o.op.req, p)
			}
			o.ok = err == nil
			v.record(o.op, err)
		}
	}
	kept := func(o op) bool { return o.index%every == 0 }
	if w.durable {
		verifyAll(obs, func(o op) bool { return o.stream == 1 && (!o.req.isRead() || kept(o)) })
	} else {
		verifyAll(obs, kept)
	}
	verifyAll(probes, func(op) bool { return true })
	return v, nil
}
