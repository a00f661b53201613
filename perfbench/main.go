// Command perfbench is the repository's benchmark. It drives the build
// system through the public calls cmd/minibuild makes — project.LoadDir,
// buildsys.NewBuilder with a state directory, Builder.BuildContext — on
// three workloads (daemon-steady, cli-clone, shared-cache), checks every
// timed build against a stateless oracle build of the same snapshot, and
// prints each metric by name and unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload cli-clone --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer metrics from spans taken around the
// program's own interfaces (see trace.go and README.md). The run exits
// non-zero if any build fails, differs from the oracle, or the workload
// did not measure the path it claims to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the build system sees, reported with
// tracing off. Times are process CPU time (user+sys): on a shared virtual
// machine the host's steal swings wall time by a third from run to run,
// while CPU time leaves it out. Wall times are printed for reference.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_build_cpu_ms", "ms"},
	{"incr_cpu_p50_ms", "ms"},
	{"incr_cpu_p90_ms", "ms"},
	{"publish_cpu_p50_ms", "ms"},
	{"cpu_ms_per_build", "ms"},
	{"io_mib_per_build", "MiB"},
	{"state_dir_kib", "KiB"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics, named layer.metric after the
// repository's packages. Times are per recorded build and are shares of
// its wall time (layers.go); counts are per build.
var perLayer = []metricDef{
	{"project.load_ms", "ms"},
	{"buildsys.wall_ms", "ms"},
	{"buildsys.new_builder_ms", "ms"},
	{"buildsys.compile_phase_ms", "ms"},
	{"buildsys.worker_util_pct", "%"},
	{"buildsys.units_compiled", "count"},
	{"buildsys.units_cached", "count"},
	{"buildsys.unattributed_ms", "ms"},
	{"compiler.frontend_ms", "ms"},
	{"compiler.codegen_ms", "ms"},
	{"compiler.stateless_p50_ms", "ms"},
	{"compiler.stateful_speedup", "ratio"},
	{"compiler.stateful_speedup_ci_lo", "ratio"},
	{"compiler.stateful_speedup_ci_hi", "ratio"},
	{"core.passes_ms", "ms"},
	{"core.pass_runs", "count"},
	{"core.pass_skipped", "count"},
	{"core.skip_rate_pct", "%"},
	{"core.fp_mismatch", "count"},
	{"core.saved_ms_est", "ms"},
	{"fingerprint.hash_ms", "ms"},
	{"fingerprint.hashes", "count"},
	{"fingerprint.memo_hit_pct", "%"},
	{"state.load_ms", "ms"},
	{"state.write_ms", "ms"},
	{"state.fsync_ms", "ms"},
	{"state.rename_ms", "ms"},
	{"state.fsyncs", "count"},
	{"state.bytes_written", "bytes"},
	{"state.files", "count"},
	{"history.append_ms", "ms"},
	{"history.bytes_read", "bytes"},
	{"history.bytes_written", "bytes"},
	{"history.fsyncs", "count"},
	{"history.records", "count"},
	{"codegen.link_ms", "ms"},
	{"cas.fetch_ms", "ms"},
	{"cas.put_ms", "ms"},
	{"cas.lease_ms", "ms"},
	{"cas.hit_pct", "%"},
	{"cas.bytes_fetched", "bytes"},
	{"cas.bytes_published", "bytes"},
	{"cas.coalesced", "count"},
	{"cas.retries", "count"},
	{"cas.consumer_cold_cpu_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
}

// writerMetrics describe the shared cache's write side. On shared-cache
// they come from the publisher's recorded builds (the consumer never
// writes to the cache); every other per-layer metric describes the
// workload's timed incremental builds.
var writerMetrics = map[string]bool{
	"cas.put_ms": true, "cas.lease_ms": true, "cas.bytes_published": true, "cas.coalesced": true,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "daemon-steady, cli-clone or shared-cache")
	seed := fs.Int64("seed", 1, "seed of the generated edit streams")
	seconds := fs.Float64("seconds", 15, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d\n", *name, *trace)
		return 2
	}
	base := os.Getenv("PERFBENCH_DIR")
	if base == "" {
		base = ".bench_build"
	}
	work := filepath.Join(base, "work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	bn, err := execute(wl, defaultParams(*seconds), *seed, *trace == 1, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if bn.rec != nil {
		out := filepath.Join(base, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := bn.rec.write(out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	res := bn.result()
	report(bn, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in a fresh scratch directory, removed after.
func execute(wl func(*bench) error, p params, seed int64, traced bool, work string) (*bench, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bn := &bench{p: p, seed: seed, workers: runtime.NumCPU(), work: work, counters: map[string]int64{}}
	if traced {
		bn.rec = newRecorder()
	}
	if err := wl(bn); err != nil {
		return nil, err
	}
	return bn, nil
}

// result assembles the run's metrics: the end-to-end set untraced, the
// per-layer set traced.
func (bn *bench) result() result {
	res := result{
		Correct:   bn.failed == 0 && bn.engagement == nil && bn.attempted > 0,
		Attempted: bn.attempted,
		Failed:    bn.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEnd, bn.endToEnd()
	if bn.rec != nil {
		defs, vals = perLayer, bn.perLayer()
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return res
}

// writes are the builds that write to the shared cache: the publisher's
// on shared-cache. Single-client workloads have no separate writer: every
// timed incremental build writes its own results, so they are the write
// side too.
func (bn *bench) writes() samples {
	if len(bn.publish.cpu) == 0 {
		return bn.incr
	}
	return bn.publish
}

func (bn *bench) endToEnd() map[string]float64 {
	per := float64(max(bn.timedBuilds, 1))
	publish := bn.writes()
	return map[string]float64{
		"setup_s":            median(bn.setupS),
		"cold_build_cpu_ms":  median(bn.cold.cpu),
		"incr_cpu_p50_ms":    quantile(bn.incr.cpu, 0.5),
		"incr_cpu_p90_ms":    quantile(bn.incr.cpu, 0.9),
		"publish_cpu_p50_ms": median(publish.cpu),
		"cpu_ms_per_build":   ms(bn.timedCPU) / per,
		"io_mib_per_build":   float64(bn.timedIO) / (1 << 20) / per,
		"state_dir_kib":      median(bn.stateKiB),
		"peak_rss_mib":       peakRSSMiB(),
	}
}

func (bn *bench) perLayer() map[string]float64 {
	mean := func(builds []map[string]float64) map[string]float64 {
		sum := map[string]float64{}
		for _, b := range builds {
			for k, v := range b {
				sum[k] += v
			}
		}
		for k := range sum {
			sum[k] /= float64(len(builds))
		}
		return sum
	}
	pct := func(part, rest float64) float64 {
		if part+rest == 0 {
			return 0
		}
		return 100 * part / (part + rest)
	}
	v := mean(bn.layers)
	if len(bn.pubLayers) > 0 {
		pub := mean(bn.pubLayers)
		for k := range writerMetrics {
			v[k] = pub[k]
		}
	}
	v["core.skip_rate_pct"] = pct(v["core.pass_skipped"], v["core.pass_runs"])
	v["fingerprint.memo_hit_pct"] = pct(v["fingerprint.blocks_memoized"], v["fingerprint.blocks_rehashed"])
	v["cas.hit_pct"] = pct(v["cas.hits"], v["cas.misses"])
	v["cas.consumer_cold_cpu_ms"] = median(bn.consumerCold.cpu)
	v["state.files"] = float64(bn.stateFiles)
	v["history.records"] = float64(bn.histRecs)

	stateless := make([]float64, len(bn.pairs))
	ratios := make([]float64, len(bn.pairs))
	for i, p := range bn.pairs {
		stateless[i], ratios[i] = p[0], p[0]/p[1]
	}
	v["compiler.stateless_p50_ms"] = median(stateless)
	v["compiler.stateful_speedup"] = median(ratios)
	v["compiler.stateful_speedup_ci_lo"], v["compiler.stateful_speedup_ci_hi"] = bootstrapMedian(ratios, bn.seed)
	if plain := median(bn.incrPlain); plain > 0 {
		v["obs.trace_overhead_pct"] = 100 * (median(bn.incrTraced) - plain) / plain
	}
	return v
}

// report writes every metric by name and unit, the correctness summary,
// and last the JSON result line.
func report(bn *bench, res result) {
	defs := endToEnd
	if bn.rec != nil {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-34s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if bn.rec == nil {
		fmt.Printf("wall time, for reference (host steal moves it): cold %.2f ms, incr p50 %.2f ms, p90 %.2f ms, publish p50 %.2f ms\n",
			median(bn.cold.wall), median(bn.incr.wall), quantile(bn.incr.wall, 0.9), median(bn.writes().wall))
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("%-34s %14.4f %s (%d of %d timed builds; %d incremental)\n", "fail_frac", frac, "ratio",
		res.Failed, res.Attempted, len(bn.incr.cpu))
	for _, f := range bn.failures {
		fmt.Println("FAILED:", f)
	}
	if bn.engagement != nil {
		fmt.Println("ENGAGEMENT CHECK FAILED:", bn.engagement)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}
