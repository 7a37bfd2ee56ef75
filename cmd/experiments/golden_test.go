//go:build !race

package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"biorank/internal/experiments"
)

const goldenPath = "../../EXPERIMENTS.md"

// goldenTargets are the experiments EXPERIMENTS.md records: every paper
// table and figure, plus the churn and rank-stability extensions.
var goldenTargets = []string{"all", "churn", "stability"}

const goldenHeader = "# Experiments\n\n" +
	"The output of `go run ./cmd/experiments -quick all churn stability`\n" +
	"(seed 1): the paper's Tables 1-3 and Figures 4-8 with its reported\n" +
	"values beside ours, then the cache-churn and rank-stability\n" +
	"extensions. `TestExperimentsGolden` (cmd/experiments) regenerates\n" +
	"it in process and fails on any difference outside the wall-clock\n" +
	"fields, which vary from run to run;\n" +
	"`BIORANK_GOLDEN_PRINT=1 go test -run TestExperimentsGolden ./cmd/experiments`\n" +
	"rewrites it.\n\n"

// TestExperimentsGolden pins the reproduction: every AP value, rank,
// SimOps count, Kendall τ and churn counter of the quick pass must
// match EXPERIMENTS.md byte for byte. Only the fields that time
// something are masked (see maskWallClock). The race detector slows the
// pass about twelvefold (~2 min), so the file builds without -race
// only, and CI runs it in a plain step.
func TestExperimentsGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, experiments.QuickOptions(), goldenTargets); err != nil {
		t.Fatal(err)
	}
	doc := goldenHeader + "```text\n" + out.String() + "```\n"
	if os.Getenv("BIORANK_GOLDEN_PRINT") != "" {
		if err := os.WriteFile(goldenPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wl, gl := maskWallClock(string(want)), maskWallClock(doc)
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Fatalf("EXPERIMENTS.md line %d differs outside the wall-clock fields:\ngolden: %q\ngot:    %q\n"+
				"(if the change is meant to move the reproduction, rerun with BIORANK_GOLDEN_PRINT=1)", i+1, w, g)
		}
	}
}

var (
	setupTime  = regexp.MustCompile(`^(worlds built and \d+ exploratory queries run in ).*$`)
	targetTime = regexp.MustCompile(`^(\[\w+ done in ).*\]$`)
	speedup    = regexp.MustCompile(`\d+(\.\d+)?x wall-clock`)
)

// wallClockTables lists the tables with timed columns: each starts at
// a line with the title prefix, its rows follow the line with the
// header prefix, and it ends at a blank line. cols counts the timed
// columns from the right of a row (1 is the last), since Figure 8's
// method names contain spaces.
var wallClockTables = []struct {
	title, header string
	cols          []int
}{
	{"Figure 8", "Method", []int{4, 3}},                 // Mean, Stdv
	{"Churn durability pass", "Policy", []int{5, 4, 3}}, // p50, p99, max
}

// maskWallClock splits doc into lines and replaces every wall-clock
// field with "~": the set-up time, each "[… done in …]" time, Figure 8's
// Mean and Stdv columns, the headline's wall-clock speedups and the
// durability pass's latency columns. It also masks the "interval"
// policy's Syncs count: that policy syncs whenever its 100 ms timer
// (wal.Options.SyncEvery) has run out, so its count depends on how long
// the 500 appends took. Masked rows are rejoined with single spaces.
func maskWallClock(doc string) []string {
	lines := strings.Split(doc, "\n")
	table, rows := -1, false
	for i, l := range lines {
		l = setupTime.ReplaceAllString(l, "${1}~")
		l = targetTime.ReplaceAllString(l, "${1}~]")
		l = speedup.ReplaceAllString(l, "~x wall-clock")
		switch {
		case l == "":
			table, rows = -1, false
		case table < 0:
			for j, tb := range wallClockTables {
				if strings.HasPrefix(l, tb.title) {
					table = j
				}
			}
		case !rows:
			rows = strings.HasPrefix(l, wallClockTables[table].header)
		default:
			f := strings.Fields(l)
			for _, c := range wallClockTables[table].cols {
				if c <= len(f) {
					f[len(f)-c] = "~"
				}
			}
			if f[0] == "interval" {
				f[len(f)-2] = "~" // Syncs
			}
			l = strings.Join(f, " ")
		}
		lines[i] = l
	}
	return lines
}
