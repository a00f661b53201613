// benchbaseline records the repository's performance trajectory: it runs
// the T2-style stateless-vs-stateful incremental comparison on a few small
// standard-suite profiles and writes the result as JSON (committed as
// BENCH_baseline.json at the repo root), so later changes have a baseline
// to compare against.
//
//	go run ./cmd/benchbaseline -out BENCH_baseline.json
//
// With -matrix it instead emits the multi-core latency matrix (committed
// as BENCH_pr6.json): a workers × profile grid of p50/p99 incremental
// latency, skip rate, fingerprint cost and allocation churn, plus
// old-vs-new fingerprint and state-layout comparisons.
//
//	go run ./cmd/benchbaseline -matrix -out BENCH_pr6.json
//
// -min-skip-rate is the skip-rate guard: when any measured profile (or
// matrix cell) skips less than the floor, the run exits non-zero — a CI
// tripwire against regressions that silently destroy the stateful win.
// Both the floor and the measured minimum are stamped into the JSON.
// -cpuprofile/-memprofile write pprof profiles of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"statefulcc/internal/bench"
	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// RunMeta stamps the environment a BENCH_*.json was measured in, so two
// documents are only ever compared knowing whether the host or revision
// moved under them.
type RunMeta struct {
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GitRevision string `json:"git_revision"`
}

// runMeta collects the stamp. The git revision degrades to "unknown"
// outside a checkout (or without git on PATH) rather than failing a run.
func runMeta() RunMeta {
	m := RunMeta{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GitRevision: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			m.GitRevision = rev
		}
	}
	return m
}

// ProfileResult is one project's stateless-vs-stateful comparison.
type ProfileResult struct {
	Name                   string  `json:"name"`
	Files                  int     `json:"files"`
	StatelessColdMS        float64 `json:"stateless_cold_ms"`
	StatefulColdMS         float64 `json:"stateful_cold_ms"`
	StatelessIncrementalMS float64 `json:"stateless_incremental_ms"`
	StatefulIncrementalMS  float64 `json:"stateful_incremental_ms"`
	SpeedupPct             float64 `json:"speedup_pct"`
	StateKiB               float64 `json:"state_kib"`
	// Metrics is the stateful builder's full counters registry after the
	// history (schema: docs/OBSERVABILITY.md) — the per-profile dormancy
	// and fingerprint accounting behind the headline speedup.
	Metrics map[string]int64 `json:"metrics"`
	// Decisions is the decision-provenance slice of Metrics: how many pass
	// executions were charged to each reason (see docs/OBSERVABILITY.md).
	Decisions map[string]int64 `json:"decisions"`
	// SkipRatePct is pass.skipped / (pass.runs + pass.skipped) × 100.
	SkipRatePct float64 `json:"skip_rate_pct"`
	// Histograms embeds the stateful run's latency-histogram snapshots
	// (unit compile, skip decision, build wall; bucket geometry in
	// docs/OBSERVABILITY.md), with the unit-compile p50/p99 pulled out as
	// headline milliseconds.
	Histograms       map[string]obs.HistogramSnapshot `json:"histograms,omitempty"`
	UnitCompileP50MS float64                          `json:"unit_compile_p50_ms,omitempty"`
	UnitCompileP99MS float64                          `json:"unit_compile_p99_ms,omitempty"`
	// AuditRate is the soundness-sentinel sampling probability of the
	// audited comparison run (0 when -audit is unset; the headline
	// stateful numbers above are always measured unaudited).
	AuditRate float64 `json:"audit_rate"`
	// StatefulAuditedIncrementalMS re-measures the stateful incremental
	// mean with the sentinel sampling at AuditRate; AuditOverheadPct is its
	// cost relative to the unaudited run. AuditSampled/AuditUnsound are the
	// audited run's sentinel counters (unsound must be 0 for honest
	// pipelines).
	StatefulAuditedIncrementalMS float64 `json:"stateful_audited_incremental_ms,omitempty"`
	AuditOverheadPct             float64 `json:"audit_overhead_pct,omitempty"`
	AuditSampled                 int64   `json:"audit_sampled,omitempty"`
	AuditUnsound                 int64   `json:"audit_unsound,omitempty"`
	// FootprintIncrementalMS re-measures the stateful incremental mean with
	// dependency-footprint tracing and enforcement on (the always-correct
	// mode); FootprintOverheadPct is its cost relative to the untraced run.
	// Checked/missed/redundant are the traced run's cross-check counters —
	// missed must be 0 for honest builds.
	FootprintIncrementalMS float64 `json:"footprint_incremental_ms,omitempty"`
	FootprintOverheadPct   float64 `json:"footprint_overhead_pct,omitempty"`
	FootprintChecked       int64   `json:"footprint_checked,omitempty"`
	FootprintMissed        int64   `json:"footprint_missed,omitempty"`
	FootprintRedundant     int64   `json:"footprint_redundant,omitempty"`
	// CAS two-client scenario (-cas): client A replays the history through a
	// shared-cache server (publishing every compile), then a cold client B
	// replays the same history against the warm cache. CASHitRatePct is B's
	// action-lookup hit rate; the fetch quantiles are B's client-side
	// wire+verify+decode latency per remote unit. CASVerifyFailed must be 0
	// on a healthy run.
	CASHitRatePct    float64 `json:"cas_hit_rate_pct,omitempty"`
	CASRemoteUnits   int64   `json:"cas_remote_units,omitempty"`
	CASCompiledUnits int64   `json:"cas_compiled_units,omitempty"`
	CASVerifyFailed  int64   `json:"cas_verify_failed"`
	CASFetchP50MS    float64 `json:"cas_fetch_p50_ms,omitempty"`
	CASFetchP99MS    float64 `json:"cas_fetch_p99_ms,omitempty"`
	// Degraded-network row (-cas): the same history replayed by a stateful
	// client whose shared-cache backend refuses every connection. The
	// breaker must trip and the build must fall back to local compiles;
	// the overhead prices a full partition relative to the no-CAS stateful
	// run (docs/ROBUSTNESS.md, "Network adversity").
	CASDegradedIncrementalMS float64 `json:"cas_degraded_incremental_ms,omitempty"`
	CASDegradedOverheadPct   float64 `json:"cas_degraded_overhead_pct,omitempty"`
	CASBreakerTrips          int64   `json:"cas_breaker_trips,omitempty"`
	CASBreakerFastFails      int64   `json:"cas_breaker_fast_fails,omitempty"`
}

// Baseline is the committed document.
type Baseline struct {
	GeneratedBy string `json:"generated_by"`
	RunMeta
	Commits        int             `json:"commits"`
	Repeats        int             `json:"repeats"`
	Profiles       []ProfileResult `json:"profiles"`
	MeanSpeedupPct float64         `json:"mean_speedup_pct"`
	// Skip-rate guard stamp: the floor the run was held to and the lowest
	// skip rate actually measured (guard is "pass", "fail", or "off").
	MinSkipRateFloorPct    float64 `json:"min_skip_rate_floor_pct"`
	MeasuredMinSkipRatePct float64 `json:"measured_min_skip_rate_pct"`
	SkipRateGuard          string  `json:"skip_rate_guard"`
	// Footprint-overhead guard stamp: the budget (max acceptable tracing
	// overhead percentage) and the highest overhead actually measured.
	FootprintOverheadBudgetPct      float64 `json:"footprint_overhead_budget_pct,omitempty"`
	MeasuredMaxFootprintOverheadPct float64 `json:"measured_max_footprint_overhead_pct,omitempty"`
	FootprintGuard                  string  `json:"footprint_guard,omitempty"`
	// Shared-cache guard stamp (-cas): the cross-client hit-rate floor and
	// the lowest rate any profile's cold client B measured.
	CASHitRateFloorPct       float64 `json:"cas_hit_rate_floor_pct,omitempty"`
	MeasuredMinCASHitRatePct float64 `json:"measured_min_cas_hit_rate_pct,omitempty"`
	CASGuard                 string  `json:"cas_guard,omitempty"`
}

// Matrix is the committed multi-core latency document (BENCH_pr6.json).
type Matrix struct {
	GeneratedBy string `json:"generated_by"`
	RunMeta
	Commits int                `json:"commits"`
	Repeats int                `json:"repeats"`
	Cells   []bench.MatrixCell `json:"cells"`
	// Side-by-side costs of the retired flat fingerprint vs the
	// hierarchical one.
	FingerprintCompare []*bench.FingerprintCompare `json:"fingerprint_compare"`
	// Skip-rate guard stamp (see Baseline).
	MinSkipRateFloorPct    float64 `json:"min_skip_rate_floor_pct"`
	MeasuredMinSkipRatePct float64 `json:"measured_min_skip_rate_pct"`
	SkipRateGuard          string  `json:"skip_rate_guard"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchbaseline:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchbaseline", flag.ContinueOnError)
	out := fs.String("out", "BENCH_baseline.json", "output file ('-' for stdout)")
	commits := fs.Int("commits", 12, "simulated commits per project")
	repeats := fs.Int("repeats", 3, "timing repeats per history (min kept)")
	nprofiles := fs.Int("profiles", 3, "number of standard-suite profiles (smallest first)")
	audit := fs.Float64("audit", 0, "also measure stateful with the soundness sentinel sampling at this rate (0 disables the comparison)")
	footprint := fs.Bool("footprint", false, "also measure stateful with dependency-footprint tracing and enforcement, including the 200+ unit megarepo profile")
	maxFPOverhead := fs.Float64("max-footprint-overhead", 0, "footprint guard: exit non-zero if tracing overhead exceeds this percentage on any profile (0 disables; requires -footprint)")
	casBench := fs.Bool("cas", false, "also measure the shared-cache two-client scenario (publisher A warms the cache, cold client B replays the history) per profile")
	minCASHitRate := fs.Float64("min-cas-hit-rate", 0, "shared-cache guard: exit non-zero if client B's hit rate falls below this percentage on any profile (0 disables; requires -cas)")
	matrix := fs.Bool("matrix", false, "emit the workers × profile latency matrix instead of the baseline comparison")
	workersFlag := fs.String("workers", "1,4,16", "comma-separated worker counts for -matrix")
	minSkip := fs.Float64("min-skip-rate", 0, "skip-rate guard: exit non-zero if any measured skip rate falls below this percentage (0 disables)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile after the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *audit < 0 || *audit > 1 {
		return fmt.Errorf("-audit %v out of range [0,1]", *audit)
	}
	if *minSkip < 0 || *minSkip > 100 {
		return fmt.Errorf("-min-skip-rate %v out of range [0,100]", *minSkip)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchbaseline:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchbaseline:", err)
			}
		}()
	}

	if *maxFPOverhead < 0 {
		return fmt.Errorf("-max-footprint-overhead %v must be >= 0", *maxFPOverhead)
	}
	if *minCASHitRate < 0 || *minCASHitRate > 100 {
		return fmt.Errorf("-min-cas-hit-rate %v out of range [0,100]", *minCASHitRate)
	}

	if *matrix {
		return runMatrix(*out, *commits, *repeats, *nprofiles, *workersFlag, *minSkip)
	}
	return runBaseline(*out, *commits, *repeats, *nprofiles, *audit, *minSkip, *footprint, *maxFPOverhead, *casBench, *minCASHitRate)
}

func runBaseline(out string, commits, repeats, nprofiles int, audit, minSkip float64, footprint bool, maxFPOverhead float64, casBench bool, minCASHitRate float64) error {
	suite := workload.StandardSuite()
	if nprofiles < len(suite) {
		suite = suite[:nprofiles]
	}
	if footprint {
		// The scale row: tracing overhead must stay bounded past 200 units,
		// not just on the small profiles.
		suite = append(suite, workload.MegaProfile())
	}
	cfg := bench.Config{Commits: commits, Repeats: repeats}
	modes := []compiler.Mode{compiler.ModeStateless, compiler.ModeStateful}

	genBy := fmt.Sprintf("go run ./cmd/benchbaseline -commits %d -repeats %d -profiles %d",
		commits, repeats, nprofiles)
	if audit > 0 {
		genBy += fmt.Sprintf(" -audit %g", audit)
	}
	if minSkip > 0 {
		genBy += fmt.Sprintf(" -min-skip-rate %g", minSkip)
	}
	if footprint {
		genBy += " -footprint"
	}
	if maxFPOverhead > 0 {
		genBy += fmt.Sprintf(" -max-footprint-overhead %g", maxFPOverhead)
	}
	if casBench {
		genBy += " -cas"
	}
	if minCASHitRate > 0 {
		genBy += fmt.Sprintf(" -min-cas-hit-rate %g", minCASHitRate)
	}
	doc := Baseline{
		GeneratedBy: genBy,
		RunMeta:     runMeta(),
		Commits:     commits,
		Repeats:     repeats,
	}

	var speedupSum float64
	measuredMin := math.Inf(1)
	maxFPMeasured := math.Inf(-1)
	minCASMeasured := math.Inf(1)
	for _, p := range suite {
		runs, err := bench.CompareHistories(p, modes, cfg)
		if err != nil {
			return err
		}
		sl, sf := runs[compiler.ModeStateless], runs[compiler.ModeStateful]
		slIncr := float64(sl.MeanIncrementalNS()) / 1e6
		sfIncr := float64(sf.MeanIncrementalNS()) / 1e6
		speedup := (slIncr/sfIncr - 1) * 100
		speedupSum += speedup
		measuredMin = math.Min(measuredMin, 100*obs.SkipRate(sf.Metrics))

		stateBytes := sf.Cold.StateBytes
		if n := len(sf.Incremental); n > 0 {
			stateBytes = sf.Incremental[n-1].StateBytes
		}
		pr := ProfileResult{
			Name:                   p.Name,
			Files:                  p.Files,
			StatelessColdMS:        round3(float64(sl.Cold.TotalNS) / 1e6),
			StatefulColdMS:         round3(float64(sf.Cold.TotalNS) / 1e6),
			StatelessIncrementalMS: round3(slIncr),
			StatefulIncrementalMS:  round3(sfIncr),
			SpeedupPct:             round3(speedup),
			StateKiB:               round3(float64(stateBytes) / 1024),
			Metrics:                sf.Metrics,
			Decisions:              obs.DecisionCounts(sf.Metrics),
			SkipRatePct:            round3(100 * obs.SkipRate(sf.Metrics)),
			Histograms:             sf.Histograms,
		}
		if h, ok := sf.Histograms[obs.HistUnitCompileNS]; ok {
			pr.UnitCompileP50MS = round3(float64(h.Quantile(0.50)) / 1e6)
			pr.UnitCompileP99MS = round3(float64(h.Quantile(0.99)) / 1e6)
		}
		if audit > 0 {
			// Sentinel-overhead comparison: the same history, stateful, with
			// skip audits sampling at -audit. The delta vs the unaudited run
			// above prices the sentinel.
			acfg := cfg
			acfg.AuditRate = audit
			arun, err := bench.RunHistory(p, compiler.ModeStateful, acfg)
			if err != nil {
				return err
			}
			aIncr := float64(arun.MeanIncrementalNS()) / 1e6
			pr.AuditRate = audit
			pr.StatefulAuditedIncrementalMS = round3(aIncr)
			if sfIncr > 0 {
				pr.AuditOverheadPct = round3((aIncr/sfIncr - 1) * 100)
			}
			pr.AuditSampled = arun.Metrics[obs.CtrAuditSampled]
			pr.AuditUnsound = arun.Metrics[obs.CtrAuditUnsound]
		}
		if footprint {
			// Footprint-overhead comparison: the same history, stateful, with
			// tracing and enforcement on. The delta vs the untraced run above
			// prices the always-correct mode.
			fcfg := cfg
			fcfg.Footprint = true
			fcfg.EnforceFootprint = true
			frun, err := bench.RunHistory(p, compiler.ModeStateful, fcfg)
			if err != nil {
				return err
			}
			fIncr := float64(frun.MeanIncrementalNS()) / 1e6
			pr.FootprintIncrementalMS = round3(fIncr)
			if sfIncr > 0 {
				pr.FootprintOverheadPct = round3((fIncr/sfIncr - 1) * 100)
				maxFPMeasured = math.Max(maxFPMeasured, pr.FootprintOverheadPct)
			}
			pr.FootprintChecked = frun.Metrics[obs.CtrFootprintChecked]
			pr.FootprintMissed = frun.Metrics[obs.CtrFootprintMissed]
			pr.FootprintRedundant = frun.Metrics[obs.CtrFootprintRedundant]
		}
		if casBench {
			if err := runCASScenario(p, commits, &pr); err != nil {
				return err
			}
			minCASMeasured = math.Min(minCASMeasured, pr.CASHitRatePct)
			if err := runCASDegraded(p, commits, sfIncr, &pr); err != nil {
				return err
			}
		}
		doc.Profiles = append(doc.Profiles, pr)
		fmt.Fprintf(os.Stderr, "%-12s stateless %.3fms  stateful %.3fms  speedup %+.2f%%  skip-rate %.1f%%\n",
			p.Name, slIncr, sfIncr, speedup, 100*obs.SkipRate(sf.Metrics))
		if audit > 0 {
			fmt.Fprintf(os.Stderr, "%-12s audited(p=%.2f) %.3fms  overhead %+.2f%%  sampled %d  unsound %d\n",
				"", audit, pr.StatefulAuditedIncrementalMS, pr.AuditOverheadPct, pr.AuditSampled, pr.AuditUnsound)
		}
		if footprint {
			fmt.Fprintf(os.Stderr, "%-12s footprint %.3fms  overhead %+.2f%%  checked %d  missed %d  redundant %d\n",
				"", pr.FootprintIncrementalMS, pr.FootprintOverheadPct,
				pr.FootprintChecked, pr.FootprintMissed, pr.FootprintRedundant)
		}
		if casBench {
			fmt.Fprintf(os.Stderr, "%-12s cas hit-rate %.1f%%  remote %d  compiled %d  fetch p50 %.3fms p99 %.3fms  verify-failed %d\n",
				"", pr.CASHitRatePct, pr.CASRemoteUnits, pr.CASCompiledUnits,
				pr.CASFetchP50MS, pr.CASFetchP99MS, pr.CASVerifyFailed)
			fmt.Fprintf(os.Stderr, "%-12s cas partitioned %.3fms  overhead %+.2f%%  breaker trips %d  fast-fails %d\n",
				"", pr.CASDegradedIncrementalMS, pr.CASDegradedOverheadPct,
				pr.CASBreakerTrips, pr.CASBreakerFastFails)
		}
	}
	doc.MeanSpeedupPct = round3(speedupSum / float64(len(suite)))
	doc.MinSkipRateFloorPct = minSkip
	doc.MeasuredMinSkipRatePct = round3(measuredMin)
	doc.SkipRateGuard = guardVerdict(minSkip, measuredMin)
	if footprint {
		doc.FootprintOverheadBudgetPct = maxFPOverhead
		doc.MeasuredMaxFootprintOverheadPct = round3(maxFPMeasured)
		doc.FootprintGuard = fpGuardVerdict(maxFPOverhead, maxFPMeasured)
	}
	if casBench {
		doc.CASHitRateFloorPct = minCASHitRate
		doc.MeasuredMinCASHitRatePct = round3(minCASMeasured)
		doc.CASGuard = guardVerdict(minCASHitRate, minCASMeasured)
	}

	if err := writeJSON(out, &doc); err != nil {
		return err
	}
	if err := guardErr(minSkip, measuredMin); err != nil {
		return err
	}
	if footprint && maxFPOverhead > 0 && maxFPMeasured > maxFPOverhead {
		return fmt.Errorf("footprint guard: measured maximum overhead %.1f%% above budget %.1f%%", maxFPMeasured, maxFPOverhead)
	}
	if casBench && minCASHitRate > 0 && minCASMeasured < minCASHitRate {
		return fmt.Errorf("cas guard: measured minimum hit rate %.1f%% below floor %.1f%%", minCASMeasured, minCASHitRate)
	}
	return nil
}

// runCASScenario measures cross-client shared-cache reuse for one profile:
// client A (its own tenant, state dir, and HTTP connection) replays the
// profile's commit history against a fresh serve instance, publishing every
// compile; then a cold client B replays the identical history. B's hit
// rate, remote-unit count, and fetch latency fill the pr.CAS* fields.
func runCASScenario(p workload.Profile, commits int, pr *ProfileResult) error {
	base := workload.Generate(p)
	hist := workload.GenerateHistoryStream(base, p.Seed*13, commits,
		workload.DefaultCommitOptions(), workload.StreamDefault)
	snaps := append([]project.Snapshot{base}, hist.Commits...)

	srv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{Metrics: obs.NewRegistry()})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	client := func(tenant string) (*buildsys.Builder, func(), error) {
		dir, err := os.MkdirTemp("", "casbench-*")
		if err != nil {
			return nil, nil, err
		}
		b, err := buildsys.NewBuilder(buildsys.Options{
			Mode:     compiler.ModeStateful,
			StateDir: dir,
			CAS:      cas.NewHTTPCAS(hs.URL, tenant),
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return b, func() { os.RemoveAll(dir) }, nil
	}

	a, cleanA, err := client("bench-a")
	if err != nil {
		return err
	}
	defer cleanA()
	for i, snap := range snaps {
		if _, err := a.Build(snap); err != nil {
			return fmt.Errorf("cas scenario %s: publisher commit %d: %w", p.Name, i, err)
		}
	}

	b, cleanB, err := client("bench-b")
	if err != nil {
		return err
	}
	defer cleanB()
	for i, snap := range snaps {
		rep, err := b.Build(snap)
		if err != nil {
			return fmt.Errorf("cas scenario %s: cold client commit %d: %w", p.Name, i, err)
		}
		pr.CASRemoteUnits += int64(rep.UnitsRemote)
		pr.CASCompiledUnits += int64(rep.UnitsCompiled)
	}

	m := b.Metrics()
	if hits, misses := m[obs.CtrCASHits], m[obs.CtrCASMisses]; hits+misses > 0 {
		pr.CASHitRatePct = round3(100 * float64(hits) / float64(hits+misses))
	}
	pr.CASVerifyFailed = m[obs.CtrCASVerifyFailed]
	if h, ok := b.Histograms()[obs.HistCASFetchNS]; ok {
		pr.CASFetchP50MS = round3(float64(h.Quantile(0.50)) / 1e6)
		pr.CASFetchP99MS = round3(float64(h.Quantile(0.99)) / 1e6)
	}
	return nil
}

// runCASDegraded measures the full-partition degraded mode: a stateful
// client whose shared-cache backend refuses every connection replays the
// history. The circuit breaker must trip (after which fetches fast-fail
// instead of burning retries), the build falls back to local compiles,
// and the measured overhead relative to the plain stateful run prices the
// partition.
func runCASDegraded(p workload.Profile, commits int, sfIncr float64, pr *ProfileResult) error {
	base := workload.Generate(p)
	hist := workload.GenerateHistoryStream(base, p.Seed*13, commits,
		workload.DefaultCommitOptions(), workload.StreamDefault)
	snaps := append([]project.Snapshot{base}, hist.Commits...)

	dir, err := os.MkdirTemp("", "casbench-degraded-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ft := cas.NewFaultTransport(nil, cas.WithNetRules(cas.NetRule{Kind: cas.NetRefused}))
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode:     compiler.ModeStateful,
		StateDir: dir,
		CAS: cas.NewHTTPCASOpts("http://127.0.0.1:9", "bench-degraded", cas.HTTPOptions{
			Transport: ft, Backoff: time.Millisecond,
		}),
	})
	if err != nil {
		return err
	}
	var incrNS int64
	for i, snap := range snaps {
		start := time.Now()
		if _, err := b.Build(snap); err != nil {
			return fmt.Errorf("cas degraded %s: commit %d: %w", p.Name, i, err)
		}
		if i > 0 {
			incrNS += time.Since(start).Nanoseconds()
		}
	}
	if n := len(snaps) - 1; n > 0 {
		pr.CASDegradedIncrementalMS = round3(float64(incrNS) / float64(n) / 1e6)
		if sfIncr > 0 {
			pr.CASDegradedOverheadPct = round3((pr.CASDegradedIncrementalMS/sfIncr - 1) * 100)
		}
	}
	m := b.Metrics()
	pr.CASBreakerTrips = m[obs.CtrCASBreakerTrips]
	pr.CASBreakerFastFails = m[obs.CtrCASBreakerOpen]
	if pr.CASBreakerTrips == 0 {
		return fmt.Errorf("cas degraded %s: the breaker never tripped against a fully partitioned backend", p.Name)
	}
	return nil
}

// fpGuardVerdict stamps the footprint-overhead guard outcome.
func fpGuardVerdict(budget, measured float64) string {
	switch {
	case budget <= 0:
		return "off"
	case measured > budget:
		return "fail"
	default:
		return "pass"
	}
}

func runMatrix(out string, commits, repeats, nprofiles int, workersFlag string, minSkip float64) error {
	suite := workload.StandardSuite()
	if nprofiles < len(suite) {
		suite = suite[:nprofiles]
	}
	var workers []int
	for _, s := range splitComma(workersFlag) {
		var w int
		if _, err := fmt.Sscanf(s, "%d", &w); err != nil || w < 1 {
			return fmt.Errorf("bad -workers element %q", s)
		}
		workers = append(workers, w)
	}

	genBy := fmt.Sprintf("go run ./cmd/benchbaseline -matrix -commits %d -repeats %d -profiles %d -workers %s",
		commits, repeats, nprofiles, workersFlag)
	if minSkip > 0 {
		genBy += fmt.Sprintf(" -min-skip-rate %g", minSkip)
	}
	doc := Matrix{
		GeneratedBy: genBy,
		RunMeta:     runMeta(),
		Commits:     commits,
		Repeats:     repeats,
	}

	cells, err := bench.RunMatrix(bench.MatrixOptions{
		Profiles: suite,
		Workers:  workers,
		Commits:  commits,
		Repeats:  repeats,
	})
	if err != nil {
		return err
	}
	measuredMin := math.Inf(1)
	for i := range cells {
		c := &cells[i]
		c.ColdMS = round3(c.ColdMS)
		c.P50IncrementalMS = round3(c.P50IncrementalMS)
		c.P99IncrementalMS = round3(c.P99IncrementalMS)
		c.MeanIncrementalMS = round3(c.MeanIncrementalMS)
		c.SkipRatePct = round3(c.SkipRatePct)
		c.MemoHitPct = round3(c.MemoHitPct)
		c.AllocsPerBuild = math.Round(c.AllocsPerBuild)
		measuredMin = math.Min(measuredMin, c.SkipRatePct)
		fmt.Fprintf(os.Stderr, "%-12s ×%-3d p50 %.3fms  p99 %.3fms  skip %.1f%%  memo-hit %.1f%%  allocs/build %.0f\n",
			c.Profile, c.Workers, c.P50IncrementalMS, c.P99IncrementalMS,
			c.SkipRatePct, c.MemoHitPct, c.AllocsPerBuild)
	}
	doc.Cells = cells

	for _, p := range suite {
		fc, err := bench.CompareFingerprints(p)
		if err != nil {
			return err
		}
		fc.SpeedupWarmVsLegacy = round3(fc.SpeedupWarmVsLegacy)
		doc.FingerprintCompare = append(doc.FingerprintCompare, fc)
		fmt.Fprintf(os.Stderr, "%-12s fingerprint legacy %dns  cold %dns  warm %dns (%.1fx)\n",
			p.Name, fc.LegacyNSPerModule, fc.ColdMemoNSPerModule, fc.WarmMemoNSPerModule,
			fc.SpeedupWarmVsLegacy)
	}

	doc.MinSkipRateFloorPct = minSkip
	doc.MeasuredMinSkipRatePct = round3(measuredMin)
	doc.SkipRateGuard = guardVerdict(minSkip, measuredMin)

	if err := writeJSON(out, &doc); err != nil {
		return err
	}
	return guardErr(minSkip, measuredMin)
}

func guardVerdict(floor, measured float64) string {
	switch {
	case floor <= 0:
		return "off"
	case measured < floor:
		return "fail"
	default:
		return "pass"
	}
}

func guardErr(floor, measured float64) error {
	if floor > 0 && measured < floor {
		return fmt.Errorf("skip-rate guard: measured minimum %.1f%% below floor %.1f%%", measured, floor)
	}
	return nil
}

func writeJSON(out string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func round3(v float64) float64 {
	return math.Round(v*1000) / 1000
}
