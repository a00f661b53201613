package bench

// The multi-core latency matrix: the hot-path evidence artifact behind
// docs/PERFORMANCE.md. A workers × profile grid of incremental build
// latency distributions (p50/p99, not just means — tail latency is where
// contention shows), skip rates, fingerprint cost, and allocation churn,
// plus side-by-side microcomparisons of the old and new fingerprint
// algorithms and state layouts. `benchbaseline -matrix` renders the whole
// thing as BENCH_pr6.json.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// MatrixCell is one (profile, workers) measurement over a full simulated
// edit history in stateful mode.
type MatrixCell struct {
	Profile string `json:"profile"`
	Files   int    `json:"files"`
	Workers int    `json:"workers"`

	ColdMS float64 `json:"cold_ms"`
	// Incremental wall-time distribution over the history's commits (each
	// commit keeps its minimum across repeats before the percentiles are
	// taken, the standard wall-clock noise reduction).
	P50IncrementalMS  float64 `json:"p50_incremental_ms"`
	P99IncrementalMS  float64 `json:"p99_incremental_ms"`
	MeanIncrementalMS float64 `json:"mean_incremental_ms"`

	SkipRatePct float64 `json:"skip_rate_pct"`

	// Fingerprint accounting for the whole history: total hashing time
	// (minimum across repeats, like the wall times — the counts are
	// deterministic but the nanoseconds are not), hash count, and the
	// hierarchical memo's hit/miss split.
	HashNS         int64   `json:"fingerprint_hash_ns"`
	Hashes         int64   `json:"fingerprint_hashes"`
	BlocksMemoized int64   `json:"blocks_memoized"`
	BlocksRehashed int64   `json:"blocks_rehashed"`
	MemoHitPct     float64 `json:"memo_hit_pct"`

	// Allocation churn per build (heap Mallocs delta across the history's
	// builds, first repeat, divided by the build count). Includes frontend
	// and codegen work, so it bounds — not isolates — fingerprint churn;
	// the FingerprintCompare microbenchmark isolates it.
	AllocsPerBuild float64 `json:"allocs_per_build"`
}

// MatrixOptions bounds a matrix run.
type MatrixOptions struct {
	// Profiles to sweep (default: the three smallest standard-suite ones).
	Profiles []workload.Profile
	// Workers is the worker-count axis (default 1, 4, 16).
	Workers []int
	// Commits / Repeats / Seed mirror Config.
	Commits int
	Repeats int
	Seed    int64
}

func (o MatrixOptions) withDefaults() MatrixOptions {
	if len(o.Profiles) == 0 {
		o.Profiles = workload.StandardSuite()[:3]
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 4, 16}
	}
	if o.Commits == 0 {
		o.Commits = 12
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunMatrix sweeps the workers × profiles grid.
func RunMatrix(opts MatrixOptions) ([]MatrixCell, error) {
	opts = opts.withDefaults()
	var cells []MatrixCell
	for _, p := range opts.Profiles {
		base := workload.Generate(p)
		hist := workload.GenerateHistory(base, p.Seed^opts.Seed, opts.Commits, workload.DefaultCommitOptions())
		snapshots := append([]project.Snapshot{base}, hist.Commits...)
		for _, workers := range opts.Workers {
			cell, err := runMatrixCell(p, workers, snapshots, opts.Repeats)
			if err != nil {
				return nil, fmt.Errorf("%s × %d workers: %w", p.Name, workers, err)
			}
			cells = append(cells, *cell)
		}
	}
	return cells, nil
}

func runMatrixCell(p workload.Profile, workers int, snapshots []project.Snapshot, repeats int) (*MatrixCell, error) {
	cell := &MatrixCell{Profile: p.Name, Files: p.Files, Workers: workers}
	// Per-commit minimum across repeats, then percentiles over commits.
	incrNS := make([]int64, len(snapshots)-1)
	var coldNS int64
	for rep := 0; rep < repeats; rep++ {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: workers})
		if err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		if rep == 0 {
			runtime.ReadMemStats(&m0)
		}
		for i, snap := range snapshots {
			rep2, err := b.Build(snap)
			if err != nil {
				return nil, err
			}
			switch {
			case i == 0 && (rep == 0 || rep2.TotalNS < coldNS):
				coldNS = rep2.TotalNS
			case i > 0 && (rep == 0 || rep2.TotalNS < incrNS[i-1]):
				incrNS[i-1] = rep2.TotalNS
			}
		}
		m := b.Metrics()
		if rep == 0 {
			runtime.ReadMemStats(&m1)
			cell.AllocsPerBuild = float64(m1.Mallocs-m0.Mallocs) / float64(len(snapshots))
			cell.SkipRatePct = 100 * obs.SkipRate(m)
			cell.Hashes = m[obs.CtrHashes]
			cell.BlocksMemoized = m[obs.CtrBlocksMemoized]
			cell.BlocksRehashed = m[obs.CtrBlocksRehashed]
			if tot := cell.BlocksMemoized + cell.BlocksRehashed; tot > 0 {
				cell.MemoHitPct = 100 * float64(cell.BlocksMemoized) / float64(tot)
			}
		}
		if hns := m[obs.CtrHashNS]; rep == 0 || hns < cell.HashNS {
			cell.HashNS = hns
		}
	}
	cell.ColdMS = float64(coldNS) / 1e6
	cell.MeanIncrementalMS = float64(meanNS(incrNS)) / 1e6
	cell.P50IncrementalMS = float64(percentileNS(incrNS, 50)) / 1e6
	cell.P99IncrementalMS = float64(percentileNS(incrNS, 99)) / 1e6
	return cell, nil
}

func meanNS(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return sum / int64(len(xs))
}

// percentileNS is the nearest-rank percentile of xs.
func percentileNS(xs []int64, pct int) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (pct*len(s) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}

// FingerprintCompare prices the hierarchical fingerprint against the old
// flat algorithm on one profile's largest unit, in the regime the memo is
// built for: repeated fingerprinting of unchanged IR (exactly what the
// driver does between pipeline slots that leave a function alone).
type FingerprintCompare struct {
	Profile string `json:"profile"`
	Funcs   int    `json:"funcs"`
	Blocks  int    `json:"blocks"`
	// Per-module fingerprinting cost: the retired flat walk, the
	// hierarchical walk with a cold memo (first sight of the module), and
	// the hierarchical walk with a warm memo (unchanged IR — every block
	// hash served from the memo).
	LegacyNSPerModule   int64 `json:"legacy_ns_per_module"`
	ColdMemoNSPerModule int64 `json:"cold_memo_ns_per_module"`
	WarmMemoNSPerModule int64 `json:"warm_memo_ns_per_module"`
	// Heap allocations per warm-memo module fingerprint (the hot path; the
	// pooled scratch should keep this at ~0).
	WarmAllocsPerModule float64 `json:"warm_allocs_per_module"`
	SpeedupWarmVsLegacy float64 `json:"speedup_warm_vs_legacy"`
}

// CompareFingerprints measures one profile's generated unit 0.
func CompareFingerprints(p workload.Profile) (*FingerprintCompare, error) {
	snap := workload.Generate(p)
	units := snap.Units()
	m, err := compiler.Frontend(units[0], snap[units[0]])
	if err != nil {
		return nil, err
	}
	fc := &FingerprintCompare{Profile: p.Name, Funcs: len(m.Funcs)}
	for _, f := range m.Funcs {
		fc.Blocks += len(f.Blocks)
	}

	// Best-of-rounds on every timing: a single GC pause mid-sample would
	// otherwise poison a published number.
	const iters, rounds = 64, 3
	minRound := func(body func()) int64 {
		best := int64(0)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				body()
			}
			if ns := time.Since(start).Nanoseconds() / iters; r == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	fc.LegacyNSPerModule = minRound(func() {
		for _, f := range m.Funcs {
			fingerprint.LegacyFunction(f)
		}
	})

	memo := fingerprint.NewMemo()
	fc.ColdMemoNSPerModule = minRound(func() {
		memo.Reset() // cold: every block rehashes
		for _, f := range m.Funcs {
			fingerprint.FunctionWith(f, memo)
		}
	})

	memo.Reset()
	for _, f := range m.Funcs {
		fingerprint.FunctionWith(f, memo) // warm the memo once
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fc.WarmMemoNSPerModule = minRound(func() {
		for _, f := range m.Funcs {
			fingerprint.FunctionWith(f, memo)
		}
	})
	runtime.ReadMemStats(&m1)
	fc.WarmAllocsPerModule = float64(m1.Mallocs-m0.Mallocs) / (iters * rounds)
	if fc.WarmMemoNSPerModule > 0 {
		fc.SpeedupWarmVsLegacy = float64(fc.LegacyNSPerModule) / float64(fc.WarmMemoNSPerModule)
	}
	return fc, nil
}
