// Command bench2json converts `go test -bench` output into the
// BENCH_rank.json artifact format CI uploads per run, so the perf
// trajectory of the ranking kernels can be tracked across PRs:
//
//	go test -bench . -benchmem -run '^$' ./internal/rank ./internal/kernel | \
//	    go run ./cmd/bench2json -label after > BENCH_rank.json
//
// Repeated runs of the same benchmark (-count N) are averaged. Output
// maps benchmark name to ns/op, B/op, allocs/op and the number of
// samples averaged.
//
// With -parent FILE the run on stdin is a change and FILE is the
// benchmark output of its parent, measured alternately with it on the
// same machine (.github/bench-pair.sh). The output then carries a
// "delta" section: for every benchmark present on both sides, the
// median ns/op and allocs/op of each side and the ratio
// median(change)/median(parent). Combined with -max-regress this
// becomes a CI gate:
//
//	go run ./cmd/bench2json -parent bench_parent.txt \
//	    -max-regress 0.25 -gate '^Benchmark(Compiled|BitParallel)' \
//	    < bench_change.txt > bench_delta.json
//
// exits with status 3 when any benchmark matching -gate regressed by
// more than the threshold; slower-but-within-threshold benchmarks only
// produce a soft-fail comment on stderr. A benchmark present on only
// one side is listed under "unpaired" and not gated, and a gate that
// matches no benchmark present on both sides fails (exit 1).
//
// -max-allocs-regress gates allocs/op the same way. Benchmarks whose
// parent median allocation count is zero are skipped by the allocs
// gate: any ratio against zero is meaningless.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one result line, e.g.
//
//	BenchmarkTraversalMC1000-8   302   3890470 ns/op   637 B/op   1 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// Result is the aggregated measurement of one benchmark.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// Delta is one benchmark's change-vs-parent comparison of medians.
type Delta struct {
	ParentNsPerOp float64 `json:"parent_ns_per_op"`
	NsPerOp       float64 `json:"ns_per_op"`
	// Ratio is change/parent: 1.0 unchanged, 2.0 twice as slow.
	Ratio float64 `json:"ratio"`
	// ParentAllocsPerOp / AllocsPerOp / AllocsRatio mirror the ns/op
	// triple for the allocation count. Omitted when the parent's median
	// is zero.
	ParentAllocsPerOp float64 `json:"parent_allocs_per_op,omitempty"`
	AllocsPerOp       float64 `json:"allocs_per_op,omitempty"`
	AllocsRatio       float64 `json:"allocs_ratio,omitempty"`
	// Gated records whether the benchmark matched the -gate pattern and
	// therefore participates in the hard-fail decision.
	Gated bool `json:"gated,omitempty"`
}

// sample is one result line.
type sample struct{ ns, bytes, allocs float64 }

func main() {
	label := flag.String("label", "", "optional label recorded in the output (e.g. a commit or \"before\"/\"after\")")
	parentFile := flag.String("parent", "", "go test -bench output of the parent commit, run alternately with stdin's on the same machine (adds a \"delta\" section)")
	maxRegress := flag.Float64("max-regress", -1, "fail (exit 3) when a -gate benchmark's median ns/op grew by more than this fraction over the parent's (e.g. 0.25 = +25%); negative disables the gate")
	maxAllocsRegress := flag.Float64("max-allocs-regress", -1, "fail (exit 3) when a -gate benchmark's median allocs/op grew by more than this fraction over the parent's; negative disables the allocs gate, parent-zero benchmarks are skipped")
	gate := flag.String("gate", "^Benchmark(Compiled|BitParallel)", "regexp selecting the benchmarks the regression gates apply to")
	flag.Parse()

	runs, err := parse(os.Stdin)
	if err != nil {
		fail(err)
	}
	// encoding/json emits map keys sorted, so the output is stable.
	out := map[string]any{"benchmarks": average(runs)}
	if *label != "" {
		out["label"] = *label
	}

	regressed := false
	if *parentFile != "" {
		gateRe, err := regexp.Compile(*gate)
		if err != nil {
			fail(fmt.Errorf("bad -gate: %w", err))
		}
		f, err := os.Open(*parentFile)
		if err != nil {
			fail(err)
		}
		parent, err := parse(f)
		f.Close()
		if err != nil {
			fail(fmt.Errorf("%s: %w", *parentFile, err))
		}
		deltas, unpaired := pair(runs, parent, gateRe)
		gatedSeen := 0
		for name, d := range deltas {
			if d.Gated {
				gatedSeen++
			}
			if *maxRegress >= 0 && d.Ratio > 1+*maxRegress {
				if d.Gated {
					regressed = true
					fmt.Fprintf(os.Stderr, "bench2json: REGRESSION %s: %.0f ns/op vs parent %.0f (%.0f%% slower, threshold %.0f%%)\n",
						name, d.NsPerOp, d.ParentNsPerOp, 100*(d.Ratio-1), 100**maxRegress)
				} else {
					fmt.Fprintf(os.Stderr, "bench2json: note: ungated benchmark %s is %.0f%% slower than the parent\n",
						name, 100*(d.Ratio-1))
				}
			} else if *maxRegress >= 0 && d.Ratio > 1 {
				// Soft-fail comment: slower, but inside the budget.
				fmt.Fprintf(os.Stderr, "bench2json: note: %s is %.0f%% slower than the parent (within the %.0f%% budget)\n",
					name, 100*(d.Ratio-1), 100**maxRegress)
			}
			if *maxAllocsRegress >= 0 && d.ParentAllocsPerOp > 0 && d.AllocsRatio > 1+*maxAllocsRegress {
				if d.Gated {
					regressed = true
					fmt.Fprintf(os.Stderr, "bench2json: REGRESSION %s: %.1f allocs/op vs parent %.1f (%.0f%% more, threshold %.0f%%)\n",
						name, d.AllocsPerOp, d.ParentAllocsPerOp, 100*(d.AllocsRatio-1), 100**maxAllocsRegress)
				} else {
					fmt.Fprintf(os.Stderr, "bench2json: note: ungated benchmark %s allocates %.0f%% more than the parent\n",
						name, 100*(d.AllocsRatio-1))
				}
			}
		}
		for _, name := range unpaired {
			fmt.Fprintf(os.Stderr, "bench2json: note: %s ran on one side only; not gated\n", name)
		}
		out["delta"] = deltas
		out["unpaired"] = unpaired
		out["parent_file"] = *parentFile
		// A gate that matches nothing is a disabled gate, not a passing
		// one: renamed benchmarks or a garbled bench run must fail loudly.
		if (*maxRegress >= 0 || *maxAllocsRegress >= 0) && gatedSeen == 0 {
			fail(fmt.Errorf("gate %q matched no benchmark present on both sides — the regression gate would be a no-op", *gate))
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
	if regressed {
		os.Exit(3)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench2json:", err)
	os.Exit(1)
}

// parse collects every result line of go test -bench output by
// benchmark name.
func parse(r io.Reader) (map[string][]sample, error) {
	runs := map[string][]sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var s sample
		s.ns, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			s.bytes, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			s.allocs, _ = strconv.ParseFloat(m[5], 64)
		}
		runs[m[1]] = append(runs[m[1]], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no benchmark lines")
	}
	return runs, nil
}

// average folds each benchmark's samples into their mean.
func average(runs map[string][]sample) map[string]*Result {
	out := make(map[string]*Result, len(runs))
	for name, ss := range runs {
		r := &Result{Samples: len(ss)}
		for _, s := range ss {
			r.NsPerOp += s.ns
			r.BytesPerOp += s.bytes
			r.AllocsPerOp += s.allocs
		}
		n := float64(len(ss))
		r.NsPerOp /= n
		r.BytesPerOp /= n
		r.AllocsPerOp /= n
		out[name] = r
	}
	return out
}

// pair compares the medians of the benchmarks present on both sides and
// lists, sorted, those present on one side only.
func pair(change, parent map[string][]sample, gate *regexp.Regexp) (map[string]*Delta, []string) {
	deltas := map[string]*Delta{}
	unpaired := []string{}
	for name, cs := range change {
		ps, ok := parent[name]
		if !ok {
			unpaired = append(unpaired, name)
			continue
		}
		d := &Delta{
			ParentNsPerOp: median(ps, func(s sample) float64 { return s.ns }),
			NsPerOp:       median(cs, func(s sample) float64 { return s.ns }),
			Gated:         gate.MatchString(name),
		}
		d.Ratio = d.NsPerOp / d.ParentNsPerOp
		if pa := median(ps, func(s sample) float64 { return s.allocs }); pa > 0 {
			d.ParentAllocsPerOp = pa
			d.AllocsPerOp = median(cs, func(s sample) float64 { return s.allocs })
			d.AllocsRatio = d.AllocsPerOp / pa
		}
		deltas[name] = d
	}
	for name := range parent {
		if _, ok := change[name]; !ok {
			unpaired = append(unpaired, name)
		}
	}
	sort.Strings(unpaired)
	return deltas, unpaired
}

// median returns the median of field over the samples.
func median(ss []sample, field func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = field(s)
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
