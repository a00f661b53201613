package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/vfs"
	"statefulcc/internal/workload"
)

// params sizes one run. The benchmark uses defaultParams; the
// transparency test uses a small fixed number of steps.
type params struct {
	seconds  float64 // measurement window
	minSteps int     // timed incremental builds per run, at least
	maxSteps int     // when > 0, exactly this many (window ignored)

	replay       int // daemon-steady: commits replayed before timing
	coldEvery    int // daemon-steady, shared-cache: steps between cold-build samples
	cloneEdits   int // cli-clone: incremental builds per clone
	epochCommits int // shared-cache: commits per publisher/consumer pair
}

func defaultParams(seconds float64) params {
	return params{
		seconds: seconds, minSteps: 100,
		// The first build is record 1; 199 more fill the flight recorder
		// to its cap (history.DefaultLimit) before the first timed build.
		replay:       199,
		coldEvery:    5,
		cloneEdits:   5,
		epochCommits: 25,
	}
}

// bench is one run of one workload.
type bench struct {
	p       params
	seed    int64
	workers int
	work    string    // scratch directory of this run
	rec     *recorder // nil when untraced
	start   time.Time // start of the measurement window

	// Correctness: timed builds attempted and failed (error, warning, or
	// a program differing from the stateless oracle), and the first
	// engagement check that failed.
	attempted, failed int
	failures          []string
	engagement        error

	// End-to-end samples.
	setupS                []float64 // CPU seconds
	cold, incr, publish   samples
	consumerCold          samples       // shared-cache: new consumers' first builds
	timedCPU              time.Duration // summed over timed builds
	timedIO               int64         // bytes, summed over timed builds
	timedBuilds           int
	stateKiB              []float64
	stateFiles, histRecs  int
	incrTraced, incrPlain []float64 // traced run: CPU ms of recorded vs unrecorded steps

	// Traced run: stateless reference pairs and per-layer figures.
	pairs      [][2]float64         // stateless ms, stateful ms
	layers     []map[string]float64 // recorded primary builds
	pubLayers  []map[string]float64 // recorded publisher builds (shared-cache)
	recorded   int                  // builds recorded so far (the next build id)
	oracle     *client
	reference  func(dir string) *client
	programSum uint64 // FNV-1a chain over every stateful program, in order
	counters   map[string]int64
}

// client is one builder user: a project directory, a state directory and
// either a resident Builder (a daemon, a serve-like client) or a fresh
// Builder per build (one minibuild process per invocation).
type client struct {
	role  string
	dir   string
	opts  buildsys.Options
	b     *buildsys.Builder // resident builder; nil with fresh
	fresh bool
	prev  map[string]int64
	cur   project.Snapshot
}

// newClient makes a client over dir with the options minibuild would
// pass: the mode, a state directory for the stateful modes, the worker
// count and the shared-cache client, and in the traced run the
// benchmark's FS and store wrappers.
func (bn *bench) newClient(role, dir, stateDir string, mode compiler.Mode, fresh bool, store *cas.HTTPCAS) (*client, error) {
	opts := buildsys.Options{Mode: mode, StateDir: stateDir, Workers: bn.workers}
	if store != nil {
		opts.CAS = store
		if bn.rec != nil {
			opts.CAS = traceStore{inner: store, rec: bn.rec}
		}
	}
	if stateDir != "" {
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, err
		}
		if bn.rec != nil {
			opts.FS = traceFS{inner: vfs.OS, rec: bn.rec}
		}
	}
	c := &client{role: role, dir: dir, opts: opts, fresh: fresh}
	if !fresh {
		b, err := buildsys.NewBuilder(opts)
		if err != nil {
			return nil, err
		}
		c.b = b
	}
	return c, nil
}

// write puts snap on disk in c's project directory, writing only the
// units that differ from what is there (an edit, not a checkout).
func (c *client) write(snap project.Snapshot) error {
	for _, name := range project.Diff(c.cur, snap) {
		path := filepath.Join(c.dir, filepath.FromSlash(name))
		src, ok := snap[name]
		if !ok {
			if err := os.Remove(path); err != nil {
				return err
			}
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, src, 0o644); err != nil {
			return err
		}
	}
	c.cur = snap
	return nil
}

// outcome is one build as the benchmark saw it.
type outcome struct {
	rep   *buildsys.Report
	snap  project.Snapshot
	delta map[string]int64 // counter deltas of this build
	ms    float64          // wall time
	cpu   float64          // process CPU time, ms
	err   error
	trace map[string]float64 // per-layer figures when recorded
}

// build runs one build the way minibuild does — project.LoadDir, then
// buildsys.NewBuilder for a fresh client, then Builder.BuildContext —
// timing it from the call to LoadDir to BuildContext's return. timed adds
// its CPU and I/O to the run's totals; record traces it.
func (bn *bench) build(c *client, timed, record bool) outcome {
	rec := bn.rec
	lo := 0
	if record && rec != nil {
		rec.mu.Lock()
		lo = len(rec.spans)
		rec.mu.Unlock()
		rec.build.Store(int64(bn.recorded))
		bn.recorded++
		defer rec.build.Store(-1)
	}
	// Start from a collected heap, as a new process does, so garbage from
	// earlier builds (the oracle's included) is not billed to this one.
	runtime.GC()
	var io0 int64
	if timed {
		io0 = ioNow()
	}
	cpu0 := cpuNow()
	start := time.Now()
	root := rec.open("build", -1)
	sp := rec.open("project.load", root)
	snap, err := project.LoadDir(c.dir)
	rec.close(sp)
	b := c.b
	if err == nil && c.fresh {
		sp = rec.open("buildsys.new_builder", root)
		b, err = buildsys.NewBuilder(c.opts)
		rec.close(sp)
	}
	var rep *buildsys.Report
	bcStart := rec.now()
	if err == nil {
		sp = rec.open("buildsys.build_context", root)
		rep, err = b.BuildContext(context.Background(), snap)
		rec.close(sp)
	}
	elapsed := time.Since(start)
	cpu := cpuNow() - cpu0
	rec.close(root)
	if timed {
		bn.timedIO += ioNow() - io0
		bn.timedCPU += cpu
		bn.timedBuilds++
	}
	out := outcome{rep: rep, snap: snap, ms: ms(elapsed), cpu: ms(cpu), err: err}
	if c.fresh {
		c.prev = nil // a new Builder's counters start at zero
	}
	if rep != nil {
		out.delta = map[string]int64{}
		for k, v := range rep.Metrics {
			out.delta[k] = v - c.prev[k]
		}
		c.prev = rep.Metrics
	}
	if record && rec.on() && err == nil {
		placeReport(rec, root, bcStart, rep)
		rec.mu.Lock()
		spans := append([]span(nil), rec.spans[lo:]...)
		rec.mu.Unlock()
		out.trace = attribute(spans, rep, out.delta)
	}
	return out
}

// placeReport adds the spans the Report times on the build's own clock
// (its epoch is BuildContext's entry): the compile phase, each unit's
// compile and the link.
func placeReport(rec *recorder, root int, at int64, rep *buildsys.Report) {
	tl := rep.Timeline
	if tl == nil {
		return
	}
	phase := rec.add(span{Name: "buildsys.compile_phase", Start: at + tl.CompileStartNS,
		End: at + tl.CompileStartNS + tl.CompileWallNS, Parent: root})
	for _, e := range tl.Events {
		if e.Outcome == obs.OutcomeSkip {
			continue
		}
		rec.add(span{Name: "buildsys.unit", Start: at + e.StartNS, End: at + e.EndNS, Parent: phase})
	}
	rec.add(span{Name: "codegen.link", Start: at + rep.TotalNS - rep.LinkNS, End: at + rep.TotalNS, Parent: root})
}

// program renders a build's linked program ("" when there is none).
func program(o outcome) string {
	if o.rep == nil || o.rep.Program == nil {
		return ""
	}
	return codegen.DisassembleProgram(o.rep.Program)
}

// check counts one timed build: it fails if it errored, returned
// warnings, or linked a program other than want (the stateless oracle's).
func (bn *bench) check(role string, o outcome, want string) bool {
	bn.attempted++
	var why string
	switch {
	case o.err != nil:
		why = o.err.Error()
	case len(o.rep.Warnings) > 0:
		why = fmt.Sprintf("warnings: %v", o.rep.Warnings)
	case program(o) != want:
		why = "program differs from the stateless oracle"
	default:
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s", bn.programSum, want)
		bn.programSum = h.Sum64()
		for _, k := range transparentCounters {
			bn.counters[role+":"+k] += o.delta[k]
		}
		return true
	}
	bn.failed++
	if len(bn.failures) < 5 {
		bn.failures = append(bn.failures, fmt.Sprintf("%s build %d: %s", role, bn.attempted, why))
	}
	return false
}

// transparentCounters are deterministic for a given seed and step count;
// tracing must leave every one of them unchanged.
var transparentCounters = []string{
	obs.CtrUnitsCompiled, obs.CtrPassRuns, obs.CtrPassSkipped, obs.CtrStateSaves,
	obs.CtrCASHits, obs.CtrCASCoalesced, obs.CtrCASPublished,
}

// engage records the first failed engagement check: the run measured a
// different path than the workload claims, so it fails.
func (bn *bench) engage(ok bool, format string, args ...any) {
	if !ok && bn.engagement == nil {
		bn.engagement = fmt.Errorf(format, args...)
	}
}

// more reports whether another timed incremental build is due.
func (bn *bench) more(steps int) bool {
	if bn.p.maxSteps > 0 {
		return steps < bn.p.maxSteps
	}
	return steps < bn.p.minSteps || time.Since(bn.start).Seconds() < bn.p.seconds
}

// step times one incremental build of pri, whose project directory
// already holds the commit, and checks it against a stateless build of the
// same snapshot made outside the timed window, whose program it returns. In the traced run every
// other step is recorded, and the stateless reference — built the way
// `minibuild -mode stateless` would on this workload — is timed in ABAB
// order against it for the paired speedup.
func (bn *bench) step(pri *client, n int) (o outcome, want string) {
	record := bn.rec != nil && n%2 == 0
	if bn.rec == nil {
		bn.oracle.dir = pri.dir
		o = bn.build(pri, true, false)
		bn.incr.add(o)
		want = program(bn.build(bn.oracle, false, false))
		bn.check(pri.role, o, want)
		return o, want
	}
	ref := bn.reference(pri.dir)
	refFirst := (n/2)%2 == 1
	var r outcome
	if refFirst {
		r = bn.build(ref, false, false)
	}
	o = bn.build(pri, true, record)
	if !refFirst {
		r = bn.build(ref, false, false)
	}
	bn.incr.add(o)
	if record {
		bn.incrTraced = append(bn.incrTraced, o.cpu)
	} else {
		bn.incrPlain = append(bn.incrPlain, o.cpu)
	}
	if r.err == nil {
		bn.pairs = append(bn.pairs, [2]float64{r.ms, o.ms})
	}
	want = program(r)
	if bn.check(pri.role, o, want) && o.trace != nil {
		bn.layers = append(bn.layers, o.trace)
	}
	return o, want
}

// nextCommit draws the next commit of the default edit stream that
// changes at least one unit (a step always has work to do).
func nextCommit(ed *workload.Editor, cur project.Snapshot) project.Snapshot {
	for {
		next, _ := ed.Commit(cur, workload.DefaultCommitOptions())
		if len(project.Diff(cur, next)) > 0 {
			return next
		}
	}
}

// profile returns a standard-suite project profile by name.
func profile(name string) workload.Profile {
	for _, p := range workload.StandardSuite() {
		if p.Name == name {
			return p
		}
	}
	panic("perfbench: no profile " + name)
}
