// Command bench is biorank's end-to-end benchmark. For each workload it
// starts biorankd as a subprocess (GOMAXPROCS=2), drives it over loopback
// with a closed loop of two clients on two keep-alive connections, checks
// every response, and — with -trace 1 — replays the same seeded request
// stream in process with spans around each layer's public calls.
//
// Run it from the repository root through bench/run.sh, which builds this
// command and biorankd:
//
//	bash bench/run.sh --workload cold_query --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1
//
// Each run does, per workload: three timed server starts (the third is
// kept), a warm-up on the stream, the timed window, the output checks,
// and with -trace 1 the traced replay. It prints every metric as
// "workload metric value unit" and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. Results and spans
// are also written to -out. Any failed or wrong response makes the
// command exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	// warmup precedes every timed window and is excluded from all metrics.
	warmup = 2 * time.Second
	// replayOps is how many requests of each stream the traced replay runs.
	replayOps = 500
)

type config struct {
	workloads []*workload
	seed      uint64
	seconds   int
	trace     bool
	server    string // biorankd binary
	out       string // results, spans, server logs and scratch WAL dirs
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: cold_query|warm_query|live_rank|live_churn|all")
		seed    = flag.Uint64("seed", 1, "seed of every generated request input")
		seconds = flag.Int("seconds", 20, "length of the timed window in seconds")
		trace   = flag.Int("trace", 1, "0: report end-to-end metrics; 1: also run the traced replay and report per-layer metrics")
		server  = flag.String("server", "", "biorankd binary (bench/run.sh builds it)")
		out     = flag.String("out", filepath.Join(".bench_build", "out"), "output directory: results, spans, server logs")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, server: *server, out: *out}
	if *name == "all" {
		cfg.workloads = workloads
	} else if w, ok := workloadByName(*name); ok {
		cfg.workloads = []*workload{w}
	}
	switch {
	case len(cfg.workloads) == 0:
		usage("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		usage("-trace must be 0 or 1")
	case cfg.seconds < 1:
		usage("-seconds must be at least 1")
	case cfg.server == "":
		usage("-server is required; run bench/run.sh from the repository root")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, cfg, os.Stdout)
	stop()
	os.Exit(code)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// runResult is one workload's outcome.
type runResult struct {
	workload string
	verdict  verdict
	e2e      map[string]float64
	layer    map[string]float64 // nil without -trace 1
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes the configured workloads and prints their results; it
// returns the process exit code.
func run(ctx context.Context, cfg config, stdout io.Writer) int {
	var results []*runResult
	for _, w := range cfg.workloads {
		r, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, note := range r.verdict.notes {
			fmt.Fprintf(os.Stderr, "bench: %s: wrong response: %s\n", w.name, note)
		}
		printLines(stdout, r)
		if err := writeJSON(filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d.json", w.name, cfg.seed)), resultFile(cfg, r)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		results = append(results, r)
	}
	s := summarize(results, cfg.trace)
	b, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !s.Correct {
		return 1
	}
	return 0
}

// summarize builds the last output line. With several workloads the
// metric names carry a "workload." prefix.
func summarize(results []*runResult, trace bool) summary {
	s := summary{Metrics: map[string]metricValue{}}
	for _, r := range results {
		s.Attempted += r.verdict.attempted
		s.Failed += r.verdict.failed
		defs, values := endToEnd, r.e2e
		if trace {
			defs, values = perLayer, r.layer
		}
		prefix := ""
		if len(results) > 1 {
			prefix = r.workload + "."
		}
		maps.Copy(s.Metrics, metricValues(defs, values, prefix))
	}
	s.Correct = s.Failed == 0
	return s
}

func metricValues(defs []metricDef, values map[string]float64, prefix string) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[prefix+d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

func printLines(w io.Writer, r *runResult) {
	print := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			fmt.Fprintf(w, "%s %s %s %s\n", r.workload, d.name, strconv.FormatFloat(values[d.name], 'g', -1, 64), d.unit)
		}
	}
	print(endToEnd, r.e2e)
	if r.layer != nil {
		print(perLayer, r.layer)
	}
	fmt.Fprintf(w, "%s attempted %d, failed %d\n", r.workload, r.verdict.attempted, r.verdict.failed)
}

func resultFile(cfg config, r *runResult) map[string]any {
	out := map[string]any{
		"workload": r.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"attempted": r.verdict.attempted, "failed": r.verdict.failed, "failures": r.verdict.notes,
	}
	out["end_to_end"] = metricValues(endToEnd, r.e2e, "")
	if r.layer != nil {
		out["per_layer"] = metricValues(perLayer, r.layer, "")
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload measures one workload end to end.
func runWorkload(ctx context.Context, cfg config, w *workload) (*runResult, error) {
	streams, err := w.streams(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generate requests: %w", err)
	}
	scratch, err := os.MkdirTemp(cfg.out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up: three timed starts, each durable one on a fresh WAL
	// directory; the timed window runs against the third.
	var (
		srv    *server
		setups []float64
	)
	for i := range 3 {
		if srv != nil {
			srv.stop()
		}
		walDir := filepath.Join(scratch, fmt.Sprintf("wal-%d", i))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		s, d, err := startServer(ctx, cfg.server, w, walDir, filepath.Join(cfg.out, w.name+"-server.log"))
		if err != nil {
			return nil, err
		}
		srv, setups = s, append(setups, d.Seconds())
	}
	defer srv.stop()

	// A server that dies mid-run must end the run, not leave the clients
	// spinning on refused connections.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-srv.done:
			cancel()
		case <-sctx.Done():
		}
	}()
	conns := newConns()
	defer closeConns(conns)
	warm, _, _ := drive(sctx, srv.base, conns, streams, warmup, w.minWarmupOps, false)
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	window, start, elapsed := drive(sctx, srv.base, conns, streams, time.Duration(cfg.seconds)*time.Second, 0, true)
	if sctx.Err() != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("biorankd exited during the run (%v); log: %s", srv.waitErr, srv.logFile.Name())
	}
	after, err := srv.stats()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var probes []observation
	if w.durable {
		probes = probe(sctx, srv.base, conns[0], cfg.seed)
	}
	srv.stop()

	// Output checks run after the window, so they take no cores from
	// the server.
	obs := append(warm, window...)
	sortObservations(obs)
	v, err := check(w, obs, probes, keepEvery)
	if err != nil {
		return nil, err
	}
	r := &runResult{workload: w.name, verdict: v, e2e: endToEndMetrics(obs, start, elapsed, setups, rss)}
	if !cfg.trace {
		return r, nil
	}
	r.layer = httpLayerMetrics(obs, after.since(before))
	rep, err := runReplay(ctx, w, cfg.seed, replayOps, scratch)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	var spans []span
	if rep.base.setup.Name != "" {
		spans = append(spans, rep.base.setup)
	}
	for _, pass := range []passResult{rep.off, rep.spans, rep.replayed} {
		for _, q := range pass.reqs {
			r.verdict.record(q.op, q.err)
		}
	}
	for _, q := range rep.replayed.reqs {
		spans = append(spans, q.spans()...)
	}
	if err := writeJSON(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed)), spans); err != nil {
		return nil, err
	}
	for k, val := range replayLayerMetrics(rep, r.layer["biorankd.read_ms_p50"]) {
		r.layer[k] = val
	}
	return r, nil
}
