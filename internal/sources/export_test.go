package sources

// These hooks expose the aligner's scoring internals to the external
// oracle tests in aligner_oracle_test.go, which need the demo world
// (internal/synth imports this package).

var (
	AlignScore = alignScore
	ScoreBound = scoreBound
)

func (a *Aligner) ScoreFloor(queryLen int) int { return a.scoreFloor(queryLen) }
