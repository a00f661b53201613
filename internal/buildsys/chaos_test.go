package buildsys_test

// Build-system chaos suite — the tentpole robustness guarantee: walk every
// injectable state/history I/O fault point of a build→edit→rebuild
// sequence (including a fresh process that edits both units and
// recompiles them from disk state), and of a sequence with a new process
// per build (TestChaosRestartWalk, where unchanged units are served from
// their persisted objects), and prove the "never worse than cold"
// degradation invariant:
//
//  1. the builder returns success whenever the compile itself succeeds —
//     state-layer and flight-recorder failures surface as Report.Warnings
//     and state.io_error / history.io_error counts, never build errors;
//  2. every linked program is byte-identical (by disassembly) to a
//     stateless build of the same snapshot, no matter which I/O call
//     failed, crashed, or tore; and
//  3. after the fault clears, one clean build re-persists state and the
//     next fresh builder recovers the full skip rate of an unfaulted run
//     (and, in the restart walk, compiles nothing at all).
//
// Fault points are enumerated by recording a clean run over the vfs seam
// — the harness asserts its own coverage instead of trusting a hand-kept
// list.

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	histpkg "statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
	"statefulcc/internal/vfs"
	"statefulcc/internal/vfs/chaostest"
)

// chaosEditedSnap is twoUnitSnap with lib.mc edited (same signature, new
// body) — the "edit" step of the build→edit→rebuild sequence.
func chaosEditedSnap() project.Snapshot {
	s := twoUnitSnap()
	s["lib.mc"] = []byte(`
func helper(n int) int {
    var s int = 0;
    for var i int = 0; i < n; i++ { s += i * 3 + 1; }
    return s - n;
}
`)
	return s
}

// chaosRestartSnap is chaosEditedSnap with a function added to each unit —
// what a fresh process builds in chaosSequence, so that both units
// recompile from their persisted dormancy state (unchanged units would be
// served from their persisted objects instead) and their untouched
// functions skip dormant passes.
func chaosRestartSnap() project.Snapshot {
	s := chaosEditedSnap()
	s["lib.mc"] = append(append([]byte(nil), s["lib.mc"]...), `
func twice(x int) int { return x * 2; }
`...)
	s["main.mc"] = append(append([]byte(nil), s["main.mc"]...), `
func unused_main(x int) int { return x + 3; }
`...)
	return s
}

// chaosCanon builds the suite's canonicalizer over a state directory.
func chaosCanon(stateDir string) vfs.Option {
	return vfs.WithCanon(chaostest.Canon(stateDir, state.TempPattern, histpkg.TempPattern))
}

// chaosBuilder constructs a stateful builder over fsys. Workers is a
// parameter: 1 gives a fully deterministic call sequence for the recorded
// walk; >1 exercises the concurrent path under seeded schedules.
func chaosBuilder(t *testing.T, fsys vfs.FS, stateDir string, workers int) *buildsys.Builder {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: stateDir, Workers: workers, FS: fsys,
	})
	if err != nil {
		t.Fatalf("builder creation must survive I/O faults: %v", err)
	}
	return b
}

// chaosSequence runs the workload under test — build A, edit, rebuild B,
// then a fresh builder ("new process") building C (both units edited) from
// disk state — and returns the three programs' disassemblies. Builds must succeed: the
// compile itself never touches the filesystem (sources come from the
// in-memory snapshot), so any build error here means a state/history I/O
// fault escaped the degradation layer.
func chaosSequence(t *testing.T, fsys vfs.FS, stateDir string, workers int) (disA, disB, disC string) {
	t.Helper()
	b1 := chaosBuilder(t, fsys, stateDir, workers)
	repA, err := b1.Build(twoUnitSnap())
	if err != nil {
		t.Fatalf("build A failed under injected I/O fault: %v", err)
	}
	repB, err := b1.Build(chaosEditedSnap())
	if err != nil {
		t.Fatalf("rebuild B failed under injected I/O fault: %v", err)
	}
	b2 := chaosBuilder(t, fsys, stateDir, workers)
	repC, err := b2.Build(chaosRestartSnap())
	if err != nil {
		t.Fatalf("fresh-builder build C failed under injected I/O fault: %v", err)
	}
	return codegen.DisassembleProgram(repA.Program),
		codegen.DisassembleProgram(repB.Program),
		codegen.DisassembleProgram(repC.Program)
}

// statelessDisasm builds snap with the stateless policy — the byte-identity
// baseline the chaos walk compares every faulted build against.
func statelessDisasm(t *testing.T, snap project.Snapshot) string {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return codegen.DisassembleProgram(mustBuild(t, b, snap).Program)
}

// controlSkips measures the full skip rate of an unfaulted fresh builder:
// one clean builder persists state for snapB, then another loads it and
// builds snapC, recompiling both units. The walk's recovery invariant must
// reach exactly this number.
func controlSkips(t *testing.T) int {
	t.Helper()
	dir := t.TempDir()
	mustBuild(t, chaosBuilder(t, nil, dir, 1), chaosEditedSnap())
	rep := mustBuild(t, chaosBuilder(t, nil, dir, 1), chaosRestartSnap())
	_, _, skipped := rep.Stats().Totals()
	if skipped == 0 {
		t.Fatal("control run has zero skips; the recovery invariant would be vacuous")
	}
	return skipped
}

// assertRecovered checks the recovery invariant over a possibly-damaged
// state directory: a clean (fault-free) build of snapB heals the persisted
// state, and the next fresh builder, building snapC, reaches the full
// control skip rate.
func assertRecovered(t *testing.T, stateDir, wantDisB, wantDisC string, wantSkips int) {
	t.Helper()
	repHeal := mustBuild(t, chaosBuilder(t, nil, stateDir, 1), chaosEditedSnap())
	if len(repHeal.Warnings) != 0 {
		t.Fatalf("fault-free healing build still warned: %v", repHeal.Warnings)
	}
	if codegen.DisassembleProgram(repHeal.Program) != wantDisB {
		t.Fatal("healing build output differs from the stateless baseline")
	}
	repWarm := mustBuild(t, chaosBuilder(t, nil, stateDir, 1), chaosRestartSnap())
	if codegen.DisassembleProgram(repWarm.Program) != wantDisC {
		t.Fatal("post-recovery warm build output differs from the stateless baseline")
	}
	if _, _, skipped := repWarm.Stats().Totals(); skipped != wantSkips {
		t.Fatalf("post-recovery skip count = %d, want full control rate %d", skipped, wantSkips)
	}
}

// TestChaosBuildRebuild is the fault-point walk over the whole sequence.
func TestChaosBuildRebuild(t *testing.T) {
	baseA := statelessDisasm(t, twoUnitSnap())
	baseB := statelessDisasm(t, chaosEditedSnap())
	baseC := statelessDisasm(t, chaosRestartSnap())
	if baseA == baseB || baseB == baseC {
		t.Fatal("edited snapshot compiles identically; the edit step is vacuous")
	}
	wantSkips := controlSkips(t)

	// Record a clean run to enumerate the fault points (Workers 1 keeps the
	// recorded call sequence deterministic).
	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, chaosCanon(recDir))
	disA, disB, disC := chaosSequence(t, rec, recDir, 1)
	if disA != baseA || disB != baseB || disC != baseC {
		t.Fatal("clean recorded run does not match the stateless baselines")
	}
	points := chaostest.Points(rec.Calls())
	if len(points) < 30 {
		t.Fatalf("recorded only %d fault points; the vfs seam has shrunk: %v", len(points), points)
	}
	cov := chaostest.OpsCovered(points)
	for _, op := range []vfs.Op{vfs.OpMkdirAll, vfs.OpReadDir, vfs.OpOpen, vfs.OpOpenFile,
		vfs.OpCreateTemp, vfs.OpRead, vfs.OpWrite, vfs.OpSync, vfs.OpClose, vfs.OpRename, vfs.OpRemove} {
		if cov[op] == 0 {
			t.Fatalf("sequence never performs %s; the walk is not covering the I/O surface (%v)", op, cov)
		}
	}
	t.Logf("walking %d fault points (%d ops)", len(points), len(cov))

	for _, p := range points {
		kinds := []vfs.Fault{vfs.FaultError, vfs.FaultCrash}
		if p.Op == vfs.OpWrite {
			kinds = append(kinds, vfs.FaultTorn)
		}
		for _, kind := range kinds {
			p, kind := p, kind
			t.Run(chaostest.Name(p, kind), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir), vfs.WithRules(chaostest.RuleFor(p, kind)))
				disA, disB, disC := chaosSequence(t, ffs, dir, 1)

				// Coverage self-check. Flight-recorder records embed build
				// timings, so buffered write/read chunk counts can shift ±1
				// between runs; a point that provably did not occur in this
				// replay is tolerated, anything else must fire.
				chaostest.AssertFiredOrAbsent(t, ffs, p)

				// Invariant: byte-identical output under every fault.
				if disA != baseA {
					t.Error("build A output differs from the stateless baseline")
				}
				if disB != baseB {
					t.Error("rebuild B output differs from the stateless baseline")
				}
				if disC != baseC {
					t.Error("fresh-builder build C output differs from the stateless baseline")
				}

				// Invariant: the fault clears, state heals, skips recover.
				assertRecovered(t, dir, baseB, baseC, wantSkips)
			})
		}
	}
}

// TestChaosStateSaveSurfaced: failing every state save must keep the build
// green while surfacing the degradation as warnings and counters.
func TestChaosStateSaveSurfaced(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
		vfs.Rule{Op: vfs.OpCreateTemp, Path: state.TempPattern, Kind: vfs.FaultError}))
	b := chaosBuilder(t, ffs, dir, 1)
	rep := mustBuild(t, b, twoUnitSnap())

	if got := rep.Metrics[obs.CtrStateIOErrors]; got < 2 {
		t.Errorf("%s = %d, want one per unit (≥2)", obs.CtrStateIOErrors, got)
	}
	if got := rep.Metrics[obs.CtrStateSaves]; got != 0 {
		t.Errorf("%s = %d with every save failing", obs.CtrStateSaves, got)
	}
	var stateWarn bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, "state: save") {
			stateWarn = true
		}
	}
	if !stateWarn {
		t.Errorf("no save warning in Report.Warnings: %v", rep.Warnings)
	}
	if codegen.DisassembleProgram(rep.Program) != statelessDisasm(t, twoUnitSnap()) {
		t.Error("degraded build output differs from the stateless baseline")
	}
}

// TestChaosStateLoadSurfaced: unreadable state files mean a cold start
// (correct output, no skips) plus warnings and counters — never an error.
func TestChaosStateLoadSurfaced(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()
	mustBuild(t, chaosBuilder(t, nil, dir, 1), snap) // persist good state

	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
		vfs.Rule{Op: vfs.OpRead, Path: "*" + ".state", Kind: vfs.FaultError}))
	rep := mustBuild(t, chaosBuilder(t, ffs, dir, 1), snap)

	if got := rep.Metrics[obs.CtrStateIOErrors]; got < 2 {
		t.Errorf("%s = %d, want one per unreadable unit (≥2)", obs.CtrStateIOErrors, got)
	}
	if got := rep.Metrics[obs.CtrStateLoadMisses]; got < 2 {
		t.Errorf("%s = %d, want failed loads counted as misses", obs.CtrStateLoadMisses, got)
	}
	var loadWarn bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, "state: load") && strings.Contains(w, "running cold") {
			loadWarn = true
		}
	}
	if !loadWarn {
		t.Errorf("no load warning in Report.Warnings: %v", rep.Warnings)
	}
	if codegen.DisassembleProgram(rep.Program) != statelessDisasm(t, snap) {
		t.Error("cold-start build output differs from the stateless baseline")
	}
}

// TestChaosHistorySurfaced: a failing flight-recorder append must keep the
// build green, warn, and count history.io_error.
func TestChaosHistorySurfaced(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
		vfs.Rule{Op: vfs.OpOpenFile, Path: histpkg.FileName, Kind: vfs.FaultError}))
	b := chaosBuilder(t, ffs, dir, 1)
	rep := mustBuild(t, b, twoUnitSnap())

	var histWarn bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, "history: append") {
			histWarn = true
		}
	}
	if !histWarn {
		t.Errorf("no history warning in Report.Warnings: %v", rep.Warnings)
	}
	// The counter lands after the report's own metrics snapshot (the append
	// runs last); read it from the builder.
	if got := b.Metrics()[obs.CtrHistoryIOErrors]; got < 1 {
		t.Errorf("%s = %d, want ≥1", obs.CtrHistoryIOErrors, got)
	}
}

// TestChaosWarningsBounded: a filesystem where everything fails must not
// balloon the report — warnings cap plus a dropped-count trailer.
func TestChaosWarningsBounded(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()
	for i := 0; i < 40; i++ { // enough units to overflow the 32-warning cap
		name := strings.Repeat("u", i%7+1) + fmt16ish(i) + ".mc"
		snap[name] = []byte(`func pad_` + fmt16ish(i) + `(x int) int { return x; }`)
	}
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Kind: vfs.FaultError})) // everything fails
	rep := mustBuild(t, chaosBuilder(t, ffs, dir, 1), snap)
	if len(rep.Warnings) > 33 { // 32 + the "and N more" trailer
		t.Fatalf("warnings not bounded: %d entries", len(rep.Warnings))
	}
	last := rep.Warnings[len(rep.Warnings)-1]
	if !strings.Contains(last, "more distinct warnings") {
		t.Fatalf("overflow trailer missing; last warning: %q", last)
	}
}

// fmt16ish renders a small int as letters so it is valid in identifiers.
func fmt16ish(i int) string {
	const alpha = "abcdefghij"
	return string([]byte{alpha[(i/10)%10], alpha[i%10]})
}

// TestChaosSeededSchedules: probabilistic multi-fault storms over the
// concurrent (Workers 2) path. Every seed must uphold the degradation
// invariant, and replaying the same seed must inject the same fault set —
// the property that makes a failing chaos seed reproducible from its seed
// alone.
func TestChaosSeededSchedules(t *testing.T) {
	baseA := statelessDisasm(t, twoUnitSnap())
	baseB := statelessDisasm(t, chaosEditedSnap())
	baseC := statelessDisasm(t, chaosRestartSnap())
	wantSkips := controlSkips(t)

	for _, seed := range []uint64{1, 7, 42, 1337} {
		seed := seed
		t.Run("seed"+strconv.FormatUint(seed, 10), func(t *testing.T) {
			t.Parallel()
			run := func(dir string) (disA, disB, disC string, injected []string) {
				ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir),
					vfs.WithSchedule(&vfs.Schedule{Seed: seed, Prob: 0.2, Torn: true}))
				disA, disB, disC = chaosSequence(t, ffs, dir, 2)
				for _, c := range ffs.Injected() {
					injected = append(injected, c.String())
				}
				sort.Strings(injected)
				return
			}

			disA, disB, disC, inj1 := run(t.TempDir())
			if disA != baseA || disB != baseB || disC != baseC {
				t.Fatalf("seed %d: faulted build output differs from stateless baseline", seed)
			}

			// Same seed, fresh directory: the injected fault set must replay
			// up to the timing-dependent write/read chunk points (identities
			// on volatile-size files legitimately come and go; everything
			// else must match exactly).
			_, _, _, inj2 := run(t.TempDir())
			stable := func(in []string) []string {
				var out []string
				for _, s := range in {
					if !strings.HasPrefix(s, string(vfs.OpWrite)+":") &&
						!strings.HasPrefix(s, string(vfs.OpRead)+":") {
						out = append(out, s)
					}
				}
				return out
			}
			s1, s2 := stable(inj1), stable(inj2)
			if strings.Join(s1, "\n") != strings.Join(s2, "\n") {
				t.Fatalf("seed %d does not replay:\nrun1: %v\nrun2: %v", seed, s1, s2)
			}
		})
	}

	// Recovery after a storm: heal one stormed directory and verify full
	// skip-rate recovery.
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir),
		vfs.WithSchedule(&vfs.Schedule{Seed: 99, Prob: 0.3, Torn: true}))
	chaosSequence(t, ffs, dir, 2)
	assertRecovered(t, dir, baseB, baseC, wantSkips)
}

// restartSnaps is the restart walk's build sequence: one new process per
// build — cold, unchanged (everything served from disk), a one-unit edit,
// then both units edited.
func restartSnaps() []project.Snapshot {
	return []project.Snapshot{twoUnitSnap(), twoUnitSnap(), libGrownSnap(), chaosRestartSnap()}
}

// restartSequence builds restartSnaps with a new builder per build over one
// state directory — one minibuild process per build — and returns the
// programs' disassemblies and the reports.
func restartSequence(t *testing.T, fsys vfs.FS, stateDir string) ([]string, []*buildsys.Report) {
	t.Helper()
	var dis []string
	var reps []*buildsys.Report
	for i, snap := range restartSnaps() {
		rep, err := chaosBuilder(t, fsys, stateDir, 1).Build(snap)
		if err != nil {
			t.Fatalf("process %d failed under injected I/O fault: %v", i, err)
		}
		dis = append(dis, codegen.DisassembleProgram(rep.Program))
		reps = append(reps, rep)
	}
	return dis, reps
}

// TestChaosRestartWalk is the fault-point walk over restartSequence: every
// state/history I/O call of four processes — including the loads that
// restore persisted objects — failed, crashed and (for writes) torn. Every
// program must equal the stateless oracle, and after the fault clears one
// clean process heals the directory so that the next one compiles nothing.
func TestChaosRestartWalk(t *testing.T) {
	var base []string
	for _, snap := range restartSnaps() {
		base = append(base, statelessDisasm(t, snap))
	}
	last := base[len(base)-1]

	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, chaosCanon(recDir))
	dis, reps := restartSequence(t, rec, recDir)
	for i := range base {
		if dis[i] != base[i] {
			t.Fatalf("clean recorded process %d does not match the stateless oracle", i)
		}
	}
	// The clean run must take the persisted-object path: the unchanged
	// second process compiles nothing, the one-unit edit compiles one unit.
	if reps[1].UnitsCompiled != 0 || reps[2].UnitsCompiled != 1 || reps[3].UnitsCompiled != 2 {
		t.Fatalf("clean run compiled %d/%d/%d units in processes 2-4, want 0/1/2",
			reps[1].UnitsCompiled, reps[2].UnitsCompiled, reps[3].UnitsCompiled)
	}
	points := chaostest.Points(rec.Calls())
	if len(points) < 60 {
		t.Fatalf("recorded only %d fault points; the vfs seam has shrunk: %v", len(points), points)
	}
	cov := chaostest.OpsCovered(points)
	for _, op := range []vfs.Op{vfs.OpMkdirAll, vfs.OpReadDir, vfs.OpOpen, vfs.OpOpenFile,
		vfs.OpCreateTemp, vfs.OpRead, vfs.OpWrite, vfs.OpSync, vfs.OpClose, vfs.OpRename, vfs.OpRemove} {
		if cov[op] == 0 {
			t.Fatalf("sequence never performs %s; the walk is not covering the I/O surface (%v)", op, cov)
		}
	}
	stateReads := 0
	for _, p := range points {
		if p.Op == vfs.OpRead && strings.HasSuffix(p.Path, ".state") {
			stateReads++
		}
	}
	if stateReads < 6 {
		t.Fatalf("only %d state-file read points; the object loads are not on the walk", stateReads)
	}
	t.Logf("walking %d fault points (%d ops, %d state reads)", len(points), len(cov), stateReads)

	for _, p := range points {
		kinds := []vfs.Fault{vfs.FaultError, vfs.FaultCrash}
		if p.Op == vfs.OpWrite {
			kinds = append(kinds, vfs.FaultTorn)
		}
		for _, kind := range kinds {
			p, kind := p, kind
			t.Run(chaostest.Name(p, kind), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir), vfs.WithRules(chaostest.RuleFor(p, kind)))
				dis, _ := restartSequence(t, ffs, dir)
				chaostest.AssertFiredOrAbsent(t, ffs, p)
				for i := range base {
					if dis[i] != base[i] {
						t.Errorf("process %d output differs from the stateless oracle", i)
					}
				}

				heal := mustBuild(t, chaosBuilder(t, nil, dir, 1), chaosRestartSnap())
				if len(heal.Warnings) != 0 {
					t.Fatalf("fault-free healing process still warned: %v", heal.Warnings)
				}
				warm := mustBuild(t, chaosBuilder(t, nil, dir, 1), chaosRestartSnap())
				if warm.UnitsCompiled != 0 {
					t.Fatalf("after healing a new process compiled %d units, want 0", warm.UnitsCompiled)
				}
				if codegen.DisassembleProgram(heal.Program) != last || codegen.DisassembleProgram(warm.Program) != last {
					t.Fatal("post-recovery output differs from the stateless oracle")
				}
			})
		}
	}
}
