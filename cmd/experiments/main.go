// Command experiments regenerates the paper's tables and figures:
//
//	experiments table1 table2 table3 fig4 fig5 fig6 fig7 fig8
//	experiments all
//	experiments -quick all   # reduced trial counts for a fast pass
//
// Extensions beyond the paper run only when named explicitly:
//
//	experiments ablation scaling racer worlds planner stability degradation churn recovery
//
// Output is printed as fixed-width text tables with the paper's reported
// values alongside for comparison. EXPERIMENTS.md, at the repository
// root, records the output of
//
//	experiments -quick all churn stability
//
// and TestExperimentsGolden fails when a change moves any of it other
// than the wall-clock fields; BIORANK_GOLDEN_PRINT=1 rewrites the file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"biorank/internal/experiments"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "reduced trials/repeats for a fast pass")
		seed    = flag.Uint64("seed", 1, "world and simulation seed")
		trials  = flag.Int("trials", 0, "override Monte Carlo trials")
		repeats = flag.Int("repeats", 0, "override repetition count m for figures 6-7")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	opts.Seed = *seed
	if *trials > 0 {
		opts.Trials = *trials
	}
	if *repeats > 0 {
		opts.Repeats = *repeats
	}
	if err := run(os.Stdout, opts, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run builds the suite under opts and prints the named targets to w,
// each followed by its wall-clock time; no targets means "all". The
// extensions beyond the paper run only when named.
func run(w io.Writer, opts experiments.Options, targets []string) error {
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	start := time.Now()
	suite, err := experiments.NewSuite(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "worlds built and %d exploratory queries run in %v\n\n",
		len(suite.Graphs12)+len(suite.Graphs3), time.Since(start).Round(time.Millisecond))

	want := map[string]bool{}
	for _, t := range targets {
		want[t] = true
	}
	all := want["all"]

	// step runs one target when it is wanted and no earlier one failed.
	step := func(name string, fn func() error) {
		if err != nil || !all && !want[name] {
			return
		}
		t0 := time.Now()
		if err = fn(); err != nil {
			err = fmt.Errorf("%s: %w", name, err)
			return
		}
		fmt.Fprintf(w, "[%s done in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	step("table1", func() error {
		fmt.Fprintln(w, experiments.RenderTable1(suite.Table1()))
		return nil
	})
	step("fig4", func() error {
		rows, err := experiments.Figure4()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderFig4(rows))
		return nil
	})
	step("fig5", func() error {
		panels, err := suite.Figure5()
		if err != nil {
			return err
		}
		for _, p := range panels {
			fmt.Fprintln(w, experiments.RenderFig5(p))
		}
		return nil
	})
	step("table2", func() error {
		rows, err := suite.Table2()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderRanks("Table 2: ranks of the 7 emerging functions", rows))
		return nil
	})
	step("table3", func() error {
		rows, err := suite.Table3()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderRanks("Table 3: ranks of the 11 hypothetical proteins' functions", rows))
		return nil
	})
	step("fig6", func() error {
		panels, err := suite.Figure6()
		if err != nil {
			return err
		}
		for _, p := range panels {
			fmt.Fprintln(w, experiments.RenderFig6(p))
		}
		return nil
	})
	step("fig7", func() error {
		res, err := suite.Figure7(nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderFig7(res))
		return nil
	})
	step("fig8", func() error {
		res, err := suite.Figure8()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.RenderFig8(res))
		return nil
	})
	// The ablation and scaling studies are extensions beyond the paper;
	// they only run when asked for explicitly.
	if want["ablation"] {
		step("ablation", func() error {
			rows, err := suite.Ablation()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderAblation(rows))
			return nil
		})
	}
	if want["scaling"] {
		step("scaling", func() error {
			rows, err := suite.Scaling(nil)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderScaling(rows))
			return nil
		})
	}
	if want["racer"] {
		step("racer", func() error {
			res, err := suite.RacerEfficiency(5)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderRacer(res))
			return nil
		})
	}
	if want["worlds"] {
		step("worlds", func() error {
			res, err := suite.BitParallel(opts.Trials)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderWorlds(res))
			return nil
		})
	}
	if want["planner"] {
		step("planner", func() error {
			res, err := suite.PlannerEfficiency(5)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderPlanner(res))
			return nil
		})
	}
	if want["stability"] {
		step("stability", func() error {
			res, err := suite.RankStability(5, opts.SensitivityTrials)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderStability(res))
			return nil
		})
	}
	if want["degradation"] {
		step("degradation", func() error {
			res, err := suite.AnytimeDegradation(0)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderDegradation(res))
			return nil
		})
	}
	if want["churn"] {
		step("churn", func() error {
			res, err := suite.Churn(0, 0, 0)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderChurn(res))
			// Durability pass: the same write stream, now through the WAL
			// under each fsync policy.
			dur, err := suite.ChurnDurability(0)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderChurnDurability(dur))
			return nil
		})
	}
	if want["recovery"] {
		step("recovery", func() error {
			res, err := suite.Recovery(nil)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RenderRecovery(res))
			return nil
		})
	}
	return err
}
