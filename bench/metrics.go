package main

import (
	"slices"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of biorankd sees, measured over HTTP
// with tracing off. BENCHMARK.json declares the same names and units
// with their regression bounds. Throughput and latency count every
// operation, ingests included: only live_churn ingests, and a metric must
// exist on every workload, so this is where ingest cost is gated.
var endToEnd = []metricDef{
	{"throughput_qps", "1/s"}, // completed, correct operations per second
	{"latency_p50_ms", "ms"},  // operation latency, send to last body byte
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"}, // median of three starts, exec to first 200 from /readyz
	{"rss_mb", "MB"}, // server VmHWM at the end of the window
}

// perLayer are the single-layer metrics: /stats deltas and client-side
// counts over the HTTP window, and the traced replay. A layer off a
// workload's request path reads 0 there.
var perLayer = []metricDef{
	{"mediator.integrate_ms_p50", "ms"},
	{"mediator.integrate_share", "ratio"},
	{"mediator.nodes_mean", "count"},
	{"mediator.integrate_all_s", "s"},
	{"sources.blast_ms_p50", "ms"},
	{"sources.profile_ms_p50", "ms"},
	{"query.run_ms_p50", "ms"},
	{"query.answers_mean", "count"},
	{"query.pruned_nodes_mean", "count"},
	{"graph.carve_ms_p50", "ms"},
	{"engine.self_ms_p50", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.cache_evictions", "count"},
	{"engine.shed", "count"},
	{"engine.plan_hit_ratio", "ratio"},
	{"engine.invalidations_per_write", "count"},
	{"engine.plan_patches_per_write", "count"},
	{"rank.fixed_ms_p50", "ms"},
	{"rank.worlds_ms_p50", "ms"},
	{"rank.adaptive_ms_p50", "ms"},
	{"rank.topk_ms_p50", "ms"},
	{"rank.share", "ratio"},
	{"rank.candidate_trials_mean", "count"},
	{"rank.exact_answers_share", "ratio"},
	{"kernel.compile_us_p50", "us"},
	{"kernel.patch_us_p50", "us"},
	{"graph.apply_us_p50", "us"},
	{"graph.sources_reaching_us_p50", "us"},
	{"wal.append_us_p50", "us"},
	{"wal.bytes_per_append", "B"},
	{"wal.checkpoints", "count"},
	{"biorankd.reads", "count"},
	{"biorankd.resp_bytes", "B"},
	{"biorankd.overhead_ms_p50", "ms"},
	{"biorankd.read_ms_p50", "ms"},
	{"biorankd.read_ms_p99", "ms"},
	{"biorankd.ingest_ms_p50", "ms"},
	{"biorankd.ingest_ms_p99", "ms"},
	{"runtime.alloc_mb_per_req", "MB"},
	{"runtime.gc_per_1k_req", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.attributed_share", "ratio"},
}

// percentile is the nearest-rank p-quantile of sorted values, the
// definition examples/loadgen uses.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// quantile is percentile over unsorted values.
func quantile(xs []float64, p float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return percentile(sorted, p)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p50 is the median of durations, in units of unit.
func p50(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// windowSlices cuts the timed window into equal slices by completion
// time. Throughput, p50 and p99 report the median over the slices, which
// a slow spell on a shared host moves less than a whole-window figure: a
// spell that slows a few hundred operations fills the top 1% of the
// whole window, but only one slice's.
const windowSlices = 5

// endToEndMetrics computes the user-facing metrics of the timed window,
// which started at start and lasted elapsed.
func endToEndMetrics(obs []observation, start time.Time, elapsed time.Duration, setups []float64, rssMB float64) map[string]float64 {
	var lat [windowSlices][]float64
	var ok [windowSlices]float64
	for _, o := range obs {
		if !o.window {
			continue
		}
		k := min(max(int(windowSlices*o.done.Sub(start)/max(elapsed, 1)), 0), windowSlices-1)
		lat[k] = append(lat[k], o.latency.Seconds()*1e3)
		if o.ok {
			ok[k]++
		}
	}
	var qps, p50s, p99s []float64
	for k := range windowSlices {
		qps = append(qps, ratio(ok[k], elapsed.Seconds()/windowSlices))
		p50s = append(p50s, median(lat[k]))
		p99s = append(p99s, quantile(lat[k], 0.99))
	}
	return map[string]float64{
		"throughput_qps": median(qps),
		"latency_p50_ms": median(p50s),
		"latency_p99_ms": median(p99s),
		"setup_s":        median(setups),
		"rss_mb":         rssMB,
	}
}

// httpLayerMetrics computes the per-layer metrics the HTTP window gives:
// /stats counter deltas, client-side sizes, and read and ingest latencies
// apart.
func httpLayerMetrics(obs []observation, d statsDelta) map[string]float64 {
	var bytes, read, ingest []float64
	for _, o := range obs {
		if !o.window {
			continue
		}
		ms := o.latency.Seconds() * 1e3
		if o.op.req.isRead() {
			bytes = append(bytes, float64(len(o.body)))
			read = append(read, ms)
		} else {
			ingest = append(ingest, ms)
		}
	}
	writes := float64(len(ingest))
	return map[string]float64{
		"engine.cache_hit_ratio":         ratio(float64(d.hits), float64(d.hits+d.misses)),
		"engine.cache_evictions":         float64(d.evictions),
		"engine.shed":                    float64(d.shed),
		"engine.plan_hit_ratio":          ratio(float64(d.planHits), float64(d.planHits+d.planMisses)),
		"engine.invalidations_per_write": ratio(float64(d.invalidations), writes),
		"engine.plan_patches_per_write":  ratio(float64(d.planPatches), writes),
		"wal.checkpoints":                float64(d.checkpoints),
		"biorankd.reads":                 float64(len(bytes)),
		"biorankd.resp_bytes":            mean(bytes),
		"biorankd.read_ms_p50":           median(read),
		"biorankd.read_ms_p99":           quantile(read, 0.99),
		"biorankd.ingest_ms_p50":         median(ingest),
		"biorankd.ingest_ms_p99":         quantile(ingest, 0.99),
	}
}

// replayLayerMetrics computes the per-layer metrics of the traced replay.
// httpP50 is the HTTP window's read p50 in ms.
func replayLayerMetrics(run *replayRun, httpP50 float64) map[string]float64 {
	durs := map[string][]time.Duration{}
	attrs := map[string]map[string][]float64{}
	var engineSelf []time.Duration
	var total, attributed time.Duration
	for _, r := range run.replayed.reqs {
		spans := r.spans()
		self := selfTimes(spans)
		var root, covered time.Duration
		for i, s := range spans {
			durs[s.Name] = append(durs[s.Name], s.dur())
			for k, v := range s.Attrs {
				if attrs[s.Name] == nil {
					attrs[s.Name] = map[string][]float64{}
				}
				attrs[s.Name][k] = append(attrs[s.Name][k], v)
			}
			if s.Parent < 0 {
				root = s.dur()
				continue
			}
			if s.Name == "engine.query" {
				engineSelf = append(engineSelf, self[i])
			}
			covered += self[i]
		}
		total += root
		attributed += min(covered, root)
	}
	share := func(prefix string) float64 {
		var d time.Duration
		for name, ds := range durs {
			if strings.HasPrefix(name, prefix) {
				for _, x := range ds {
					d += x
				}
			}
		}
		return ratio(float64(d), float64(total))
	}
	topk := attrs["rank.topk"]

	var offReads []time.Duration
	var offTotal, onTotal time.Duration
	for _, r := range run.off.reqs {
		offTotal += r.d
		if r.op.req.isRead() {
			offReads = append(offReads, r.d)
		}
	}
	for _, r := range run.spans.reqs {
		onTotal += r.d
	}
	n := float64(len(run.off.reqs))
	return map[string]float64{
		"mediator.integrate_ms_p50":     p50(durs["mediator.integrate"], time.Millisecond),
		"mediator.integrate_share":      share("mediator.integrate"),
		"mediator.nodes_mean":           mean(attrs["mediator.integrate"]["nodes"]),
		"mediator.integrate_all_s":      run.base.setup.dur().Seconds(),
		"sources.blast_ms_p50":          p50(durs["sources.blast"], time.Millisecond),
		"sources.profile_ms_p50":        p50(durs["sources.profile"], time.Millisecond),
		"query.run_ms_p50":              p50(durs["query.run"], time.Millisecond),
		"query.answers_mean":            mean(attrs["query.run"]["answers"]),
		"query.pruned_nodes_mean":       mean(attrs["query.run"]["nodes"]),
		"graph.carve_ms_p50":            p50(durs["graph.carve"], time.Millisecond),
		"engine.self_ms_p50":            p50(engineSelf, time.Millisecond),
		"rank.fixed_ms_p50":             p50(durs["rank.fixed"], time.Millisecond),
		"rank.worlds_ms_p50":            p50(durs["rank.worlds"], time.Millisecond),
		"rank.adaptive_ms_p50":          p50(durs["rank.adaptive"], time.Millisecond),
		"rank.topk_ms_p50":              p50(durs["rank.topk"], time.Millisecond),
		"rank.share":                    share("rank."),
		"rank.candidate_trials_mean":    mean(topk["candidate_trials"]),
		"rank.exact_answers_share":      ratio(sum(topk["exact_answers"]), sum(topk["candidates"])),
		"kernel.compile_us_p50":         p50(durs["kernel.compile"], time.Microsecond),
		"kernel.patch_us_p50":           p50(durs["kernel.patch"], time.Microsecond),
		"graph.apply_us_p50":            p50(durs["graph.apply"], time.Microsecond),
		"graph.sources_reaching_us_p50": p50(durs["graph.sources_reaching"], time.Microsecond),
		"wal.append_us_p50":             p50(durs["wal.append"], time.Microsecond),
		"wal.bytes_per_append":          ratio(float64(run.off.walBytes), float64(run.off.walAppends)),
		"biorankd.overhead_ms_p50":      httpP50 - p50(offReads, time.Millisecond),
		"runtime.alloc_mb_per_req":      ratio(float64(run.off.allocBytes)/(1<<20), n),
		"runtime.gc_per_1k_req":         ratio(float64(run.off.gcs)*1000, n),
		"trace.overhead_pct":            100 * ratio(float64(onTotal-offTotal), float64(offTotal)),
		"trace.attributed_share":        ratio(float64(attributed), float64(total)),
	}
}
