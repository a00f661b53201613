package buildsys_test

// Robustness of the builder's edges: the persistent-state path must never
// turn disk problems into build failures, worker counts normalize, and
// degenerate snapshots (empty, shrinking) are handled.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
	"statefulcc/internal/vm"
)

// twoUnitSnap is a minimal cross-unit project.
func twoUnitSnap() project.Snapshot {
	return project.Snapshot{
		"lib.mc": []byte(`
func helper(n int) int {
    var s int = 0;
    for var i int = 0; i < n; i++ { s += i; }
    return s;
}
`),
		"main.mc": []byte(`
extern func helper(n int) int;
func main() int { print("sum", helper(5)); return helper(5); }
`),
	}
}

// libGrownSnap is twoUnitSnap with a function added to lib.mc: a one-unit
// edit that leaves helper untouched, so its dormant passes can skip when
// lib.mc recompiles.
func libGrownSnap() project.Snapshot {
	s := twoUnitSnap()
	s["lib.mc"] = append(append([]byte(nil), s["lib.mc"]...), `
func twice(x int) int { return x * 2; }
`...)
	return s
}

func mustBuild(t *testing.T, b *buildsys.Builder, snap project.Snapshot) *buildsys.Report {
	t.Helper()
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStatePersistenceAcrossBuilders: state written by one builder warms
// a fresh builder in a new "process". On an unchanged snapshot every unit
// is served from its persisted object (nothing compiles); after a one-unit
// edit exactly that unit compiles, skipping dormant passes on its
// persisted records. Every program equals the stateless oracle.
func TestStatePersistenceAcrossBuilders(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()

	b1, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, b1, snap)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var stateFiles []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".state") {
			stateFiles = append(stateFiles, e.Name())
		}
	}
	if len(stateFiles) != len(snap) {
		t.Fatalf("state files = %d, want %d (%v)", len(stateFiles), len(snap), stateFiles)
	}

	b2, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := mustBuild(t, b2, snap)
	if rep.UnitsCompiled != 0 || rep.UnitsCached != len(snap) {
		t.Fatalf("fresh builder on an unchanged snapshot compiled %d, served %d; want 0, %d",
			rep.UnitsCompiled, rep.UnitsCached, len(snap))
	}
	if got := rep.Metrics[obs.CtrStateLoads]; got != int64(len(snap)) {
		t.Errorf("%s = %d, want one per unit (%d)", obs.CtrStateLoads, got, len(snap))
	}
	if rep.StateBytes <= 0 {
		t.Error("stateful build reports no state bytes")
	}
	if codegen.DisassembleProgram(rep.Program) != statelessDisasm(t, snap) {
		t.Error("program served from persisted objects differs from the stateless oracle")
	}

	edited := libGrownSnap()
	b3, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep = mustBuild(t, b3, edited)
	if rep.UnitsCompiled != 1 || !rep.Units["lib.mc"].Compiled {
		t.Fatalf("fresh builder after a one-unit edit compiled %d units (%v), want only lib.mc",
			rep.UnitsCompiled, rep.Units)
	}
	if _, _, skipped := rep.Stats().Totals(); skipped == 0 {
		t.Error("persisted state produced no skips in a fresh builder")
	}
	if codegen.DisassembleProgram(rep.Program) != statelessDisasm(t, edited) {
		t.Error("partly restored program differs from the stateless oracle")
	}
}

// TestCorruptStateIsColdStart: truncated or garbage state files must yield
// a correct cold rebuild, never an error.
func TestCorruptStateIsColdStart(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()

	b1, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustBuild(t, b1, snap)
	refOut, refRes, err := vm.RunCapture(ref.Program, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every state file a different way: truncate one, fill the
	// next with garbage.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".state") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if i%2 == 0 {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := os.WriteFile(path, []byte("not a state file at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		i++
	}
	if i == 0 {
		t.Fatal("no state files written")
	}

	b2, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b2.Build(snap)
	if err != nil {
		t.Fatalf("corrupt state must cold-start, got error: %v", err)
	}
	out, res, err := vm.RunCapture(rep.Program, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out != refOut || res.ExitValue != refRes.ExitValue {
		t.Errorf("cold rebuild behaviour differs: %q/%d vs %q/%d", out, res.ExitValue, refOut, refRes.ExitValue)
	}
}

// TestCrashMidStateWrite simulates a process killed partway through
// persisting dormancy state: an orphaned atomic-writer temp file sits next
// to a truncated state file. The next builder must cold-start cleanly,
// produce the same program, and sweep the orphan so temp files cannot
// accumulate across crashes.
func TestCrashMidStateWrite(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()

	b1, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustBuild(t, b1, snap)
	refOut, refRes, err := vm.RunCapture(ref.Program, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Crash leftovers: a half-written temp (matching state.TempPattern, as
	// os.CreateTemp would name it) plus one real state file cut short.
	orphan := filepath.Join(dir, ".state-3141592653")
	if err := os.WriteFile(orphan, []byte("partial write, process died here"), 0o600); err != nil {
		t.Fatal(err)
	}
	if ok, err := filepath.Match(state.TempPattern, filepath.Base(orphan)); err != nil || !ok {
		t.Fatalf("test orphan %q does not match state.TempPattern %q", orphan, state.TempPattern)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	truncated := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".state") {
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			truncated = true
			break
		}
	}
	if !truncated {
		t.Fatal("no state file to truncate")
	}

	// "Restart": a fresh builder over the damaged directory.
	b2, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("builder creation must survive crash leftovers: %v", err)
	}
	rep, err := b2.Build(snap)
	if err != nil {
		t.Fatalf("crash leftovers must cold-start, got error: %v", err)
	}
	out, res, err := vm.RunCapture(rep.Program, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out != refOut || res.ExitValue != refRes.ExitValue {
		t.Errorf("post-crash rebuild behaviour differs: %q/%d vs %q/%d",
			out, res.ExitValue, refOut, refRes.ExitValue)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file not swept at builder start (stat err: %v)", err)
	}

	// The rebuild rewrote good state; one more fresh builder, after an
	// edit, must skip again.
	b3, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep3 := mustBuild(t, b3, libGrownSnap())
	if _, _, skipped := rep3.Stats().Totals(); skipped == 0 {
		t.Error("state not re-persisted after crash recovery")
	}
}

// TestWorkersNormalized: zero and negative worker counts fall back to a
// sane positive default.
func TestWorkersNormalized(t *testing.T) {
	for _, w := range []int{0, -1, -8} {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if b.Workers() < 1 {
			t.Errorf("workers=%d normalized to %d", w, b.Workers())
		}
		if _, err := b.Build(twoUnitSnap()); err != nil {
			t.Errorf("workers=%d: build failed: %v", w, err)
		}
	}
}

// TestEmptySnapshot: building nothing is a clean error and leaves the
// builder usable.
func TestEmptySnapshot(t *testing.T) {
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(project.Snapshot{}); err == nil {
		t.Error("empty snapshot built without error")
	}
	if _, err := b.Build(twoUnitSnap()); err != nil {
		t.Errorf("builder unusable after empty snapshot: %v", err)
	}
}

// TestRemovedUnitRebuild: shrinking the project drops the removed unit
// from the cache, its state file from disk, and the link.
func TestRemovedUnitRebuild(t *testing.T) {
	dir := t.TempDir()
	full := twoUnitSnap()
	full["extra.mc"] = []byte(`func unused_extra(x int) int { return x * 2; }`)

	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, b, full)

	count := func() int {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".state") {
				n++
			}
		}
		return n
	}
	if got := count(); got != 3 {
		t.Fatalf("state files after full build = %d, want 3", got)
	}

	shrunk := twoUnitSnap()
	rep := mustBuild(t, b, shrunk)
	if rep.UnitsCompiled != 0 || rep.UnitsCached != 2 {
		t.Errorf("shrunk rebuild: compiled=%d cached=%d, want 0/2", rep.UnitsCompiled, rep.UnitsCached)
	}
	if _, ok := rep.Units["extra.mc"]; ok {
		t.Error("removed unit still reported")
	}
	if got := count(); got != 2 {
		t.Errorf("state files after removal = %d, want 2", got)
	}
	if _, _, err := vm.RunCapture(rep.Program, vm.Config{}); err != nil {
		t.Errorf("shrunk program failed: %v", err)
	}

	// Growing back recompiles only the returning unit.
	rep = mustBuild(t, b, full)
	if rep.UnitsCompiled != 1 || rep.UnitsCached != 2 {
		t.Errorf("regrown rebuild: compiled=%d cached=%d, want 1/2", rep.UnitsCompiled, rep.UnitsCached)
	}
}

// TestBuilderErrorRecovery: a snapshot with a broken unit fails the build
// deterministically but the builder keeps working afterwards.
func TestBuilderErrorRecovery(t *testing.T) {
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	good := twoUnitSnap()
	mustBuild(t, b, good)

	broken := good.Clone()
	broken["main.mc"] = []byte(`func main() int { return undefined_thing(); }`)
	if _, err := b.Build(broken); err == nil {
		t.Fatal("broken snapshot built without error")
	} else if !strings.Contains(err.Error(), "main.mc") {
		t.Errorf("error does not name the failing unit: %v", err)
	}

	rep := mustBuild(t, b, good)
	if _, _, err := vm.RunCapture(rep.Program, vm.Config{}); err != nil {
		t.Errorf("recovered build failed to run: %v", err)
	}
}
