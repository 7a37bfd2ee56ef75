package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the tests run the command itself: with
// BENCH2JSON_MAIN=1 the test binary is bench2json.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH2JSON_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchOutput renders go test -bench lines, one per (ns, allocs) pair.
func benchOutput(name string, runs ...[2]float64) string {
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "%s-2  \t 100\t %g ns/op\t 64 B/op\t %g allocs/op\n", name, r[0], r[1])
	}
	return b.String()
}

// TestPairComparesMedians checks the paired comparison: medians per
// side (odd and even sample counts), the allocs ratio skipped against a
// zero parent, the gate flag, and one-sided benchmarks listed apart.
func TestPairComparesMedians(t *testing.T) {
	change, err := parse(strings.NewReader(
		benchOutput("BenchmarkA", [2]float64{300, 10}, [2]float64{100, 12}, [2]float64{200, 11}) +
			benchOutput("BenchmarkB", [2]float64{50, 3}, [2]float64{70, 5}) +
			benchOutput("BenchmarkNew", [2]float64{1, 0})))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := parse(strings.NewReader(
		benchOutput("BenchmarkA", [2]float64{100, 10}, [2]float64{5000, 10}, [2]float64{80, 10}) +
			benchOutput("BenchmarkB", [2]float64{40, 0}, [2]float64{80, 0}) +
			benchOutput("BenchmarkGone", [2]float64{1, 0})))
	if err != nil {
		t.Fatal(err)
	}
	deltas, unpaired := pair(change, parent, regexp.MustCompile("^BenchmarkA$"))
	a := deltas["BenchmarkA"]
	if a == nil || a.NsPerOp != 200 || a.ParentNsPerOp != 100 || a.Ratio != 2 || !a.Gated {
		t.Errorf("BenchmarkA = %+v, want medians 200/100, ratio 2, gated", a)
	}
	if a != nil && (a.AllocsPerOp != 11 || a.ParentAllocsPerOp != 10 || a.AllocsRatio != 1.1) {
		t.Errorf("BenchmarkA allocs = %+v, want medians 11/10", a)
	}
	b := deltas["BenchmarkB"]
	if b == nil || b.NsPerOp != 60 || b.ParentNsPerOp != 60 || b.Ratio != 1 || b.Gated || b.AllocsRatio != 0 {
		t.Errorf("BenchmarkB = %+v, want even-count medians 60/60, ungated, no allocs ratio against a zero parent", b)
	}
	if want := []string{"BenchmarkGone", "BenchmarkNew"}; !reflect.DeepEqual(unpaired, want) || len(deltas) != 2 {
		t.Errorf("unpaired = %v with %d deltas, want %v and 2", unpaired, len(deltas), want)
	}
}

// TestPairedGateExitCodes runs the command as CI does and checks its
// exit status: 0 within budget, 3 on a gated ns/op or allocs/op
// regression, 1 when the gate matches no benchmark present on both
// sides or the parent file is missing or holds no benchmark lines, and
// no gating of a benchmark the parent lacks.
func TestPairedGateExitCodes(t *testing.T) {
	dir := t.TempDir()
	parentFile := filepath.Join(dir, "parent.txt")
	if err := os.WriteFile(parentFile, []byte(benchOutput("BenchmarkGated", [2]float64{100, 10}, [2]float64{110, 10}, [2]float64{90, 10})), 0o644); err != nil {
		t.Fatal(err)
	}
	emptyFile := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(emptyFile, []byte("ok  \tbiorank/internal/kernel\t5.620s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, parent, change, gate string
		want                       int
	}{
		{"within budget", parentFile, benchOutput("BenchmarkGated", [2]float64{120, 10}, [2]float64{115, 12}, [2]float64{500, 10}), "^BenchmarkGated$", 0},
		{"ns regression", parentFile, benchOutput("BenchmarkGated", [2]float64{130, 10}, [2]float64{126, 10}, [2]float64{90, 10}), "^BenchmarkGated$", 3},
		{"allocs regression", parentFile, benchOutput("BenchmarkGated", [2]float64{100, 13}, [2]float64{100, 13}, [2]float64{100, 10}), "^BenchmarkGated$", 3},
		{"gate matches nothing", parentFile, benchOutput("BenchmarkGated", [2]float64{100, 10}), "^BenchmarkRenamed$", 1},
		{"one-sided benchmark not gated", parentFile, benchOutput("BenchmarkGated", [2]float64{100, 10}) +
			benchOutput("BenchmarkGatedNew", [2]float64{1e9, 1e9}), "^BenchmarkGated", 0},
		{"only one-sided matches", parentFile, benchOutput("BenchmarkGated", [2]float64{100, 10}) +
			benchOutput("BenchmarkNew", [2]float64{1, 1}), "^BenchmarkNew$", 1},
		{"parent file missing", filepath.Join(dir, "missing.txt"), benchOutput("BenchmarkGated", [2]float64{100, 10}), "^BenchmarkGated$", 1},
		{"parent file without benchmark lines", emptyFile, benchOutput("BenchmarkGated", [2]float64{100, 10}), "^BenchmarkGated$", 1},
	} {
		cmd := exec.Command(os.Args[0], "-parent", tc.parent, "-max-regress", "0.25", "-max-allocs-regress", "0.25", "-gate", tc.gate)
		cmd.Env = append(os.Environ(), "BENCH2JSON_MAIN=1")
		cmd.Stdin = strings.NewReader(tc.change)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		got := 0
		if ee, ok := err.(*exec.ExitError); ok {
			got = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, stderr.String())
		}
	}
}

// TestBenchLineRegex pins the parser against representative go test
// -bench output shapes.
func TestBenchLineRegex(t *testing.T) {
	for _, tc := range []struct {
		line string
		name string
		ns   string
	}{
		{"BenchmarkTraversalMC1000-8   302   3890470 ns/op   637 B/op   1 allocs/op", "BenchmarkTraversalMC1000", "3890470"},
		{"BenchmarkBitParallel10000 \t 312\t   3950600 ns/op", "BenchmarkBitParallel10000", "3950600"},
		{"BenchmarkCompile-4 	 60000	 18713.5 ns/op	 45728 B/op	 15 allocs/op", "BenchmarkCompile", "18713.5"},
	} {
		m := benchLine.FindStringSubmatch(tc.line)
		if m == nil {
			t.Errorf("line %q did not match", tc.line)
			continue
		}
		if m[1] != tc.name || m[3] != tc.ns {
			t.Errorf("line %q parsed as (%s, %s), want (%s, %s)", tc.line, m[1], m[3], tc.name, tc.ns)
		}
	}
	if benchLine.MatchString("ok  \tbiorank/internal/kernel\t5.620s") {
		t.Error("summary line must not parse as a benchmark")
	}
}
