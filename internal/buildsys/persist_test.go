package buildsys_test

// Cross-process persistence of compiled objects: each unit's object rides
// in its state file (format v7), so a new Builder over the same StateDir
// compiles only the units whose source changed. These tests pin when a
// persisted object is served and when it must not be: a pipeline change,
// a damaged object block, a legacy state layout, and a shared cache (which
// keeps the objects itself). Every program is compared with the stateless
// oracle.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/passes"
	"statefulcc/internal/state"
)

// persistBuilder is a fresh stateful builder ("a new process") over dir.
func persistBuilder(t *testing.T, opts buildsys.Options) *buildsys.Builder {
	t.Helper()
	opts.Mode = compiler.ModeStateful
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	b, err := buildsys.NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stateFilesIn returns the paths of dir's unit state files.
func stateFilesIn(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".state") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// stateFileOf returns the state file path holding unit's state.
func stateFileOf(t *testing.T, dir, unit string) string {
	t.Helper()
	for _, path := range stateFilesIn(t, dir) {
		st, err := state.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Unit == unit {
			return path
		}
	}
	t.Fatalf("no state file for %s in %s", unit, dir)
	return ""
}

func TestRestartPipelineChangeRecompilesAll(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()
	mustBuild(t, persistBuilder(t, buildsys.Options{StateDir: dir}), snap)

	// The persisted objects were compiled by the standard pipeline; a
	// builder running another pipeline must not serve them.
	rep := mustBuild(t, persistBuilder(t, buildsys.Options{StateDir: dir, Pipeline: passes.QuickPipeline}), snap)
	if rep.UnitsCompiled != len(snap) {
		t.Fatalf("pipeline change compiled %d of %d units", rep.UnitsCompiled, len(snap))
	}
	oracle, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless, Pipeline: passes.QuickPipeline, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if codegen.DisassembleProgram(rep.Program) != codegen.DisassembleProgram(mustBuild(t, oracle, snap).Program) {
		t.Fatal("program after a pipeline change differs from the stateless oracle")
	}
}

func TestRestartFlippedObjectByteRecompiles(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()
	mustBuild(t, persistBuilder(t, buildsys.Options{StateDir: dir}), snap)

	// Flip one byte inside lib.mc's object payload — the last block of
	// the file — leaving the dormancy records intact.
	path := stateFileOf(t, dir, "lib.mc")
	st, err := state.Load(path)
	if err != nil || st.Object == nil {
		t.Fatalf("lib.mc state carries no object (err %v)", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-len(st.Object.Packed)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := mustBuild(t, persistBuilder(t, buildsys.Options{StateDir: dir}), snap)
	if rep.UnitsCompiled != 1 || !rep.Units["lib.mc"].Compiled {
		t.Fatalf("damaged object: compiled %d units (%v), want only lib.mc", rep.UnitsCompiled, rep.Units)
	}
	if got := rep.Metrics[obs.CtrStateIOErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrStateIOErrors, got)
	}
	warned := false
	for _, w := range rep.Warnings {
		warned = warned || strings.Contains(w, "stored object rejected")
	}
	if !warned {
		t.Errorf("no warning for the rejected object: %v", rep.Warnings)
	}
	if _, _, skipped := rep.Stats().Totals(); skipped == 0 {
		t.Error("the recompile lost the unit's dormancy records (no skips)")
	}
	if codegen.DisassembleProgram(rep.Program) != statelessDisasm(t, snap) {
		t.Fatal("program after a damaged object differs from the stateless oracle")
	}

	// The recompile re-persisted a good object.
	rep = mustBuild(t, persistBuilder(t, buildsys.Options{StateDir: dir}), snap)
	if rep.UnitsCompiled != 0 || len(rep.Warnings) != 0 {
		t.Fatalf("after healing: compiled %d, warnings %v", rep.UnitsCompiled, rep.Warnings)
	}
}

func TestCASStateFilesCarryNoObject(t *testing.T) {
	snap := twoUnitSnap()
	for _, withCAS := range []bool{false, true} {
		dir := t.TempDir()
		opts := buildsys.Options{StateDir: dir}
		if withCAS {
			opts.CAS = cas.NewMemCAS(0)
		}
		rep := mustBuild(t, persistBuilder(t, opts), snap)
		if codegen.DisassembleProgram(rep.Program) != statelessDisasm(t, snap) {
			t.Fatal("program differs from the stateless oracle")
		}
		files := stateFilesIn(t, dir)
		if len(files) != len(snap) {
			t.Fatalf("CAS %v: %d state files, want %d", withCAS, len(files), len(snap))
		}
		for _, path := range files {
			st, err := state.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if withCAS && st.Object != nil {
				t.Errorf("%s carries an object beside the CAS", filepath.Base(path))
			}
			if !withCAS && st.Object == nil {
				t.Errorf("%s carries no object without a CAS", filepath.Base(path))
			}
		}
	}
}

// TestLegacyStateFilesColdStart: state files in the retired v3 and v4
// layouts are rejected like any corrupt file, so their units compile cold
// and are saved again in the current layout.
func TestLegacyStateFilesColdStart(t *testing.T) {
	snap := twoUnitSnap()
	want := statelessDisasm(t, snap)
	for _, golden := range []string{"unitstate_v3.golden", "unitstate_v4.golden"} {
		legacy, err := os.ReadFile(filepath.Join("..", "state", "testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		mustBuild(t, persistBuilder(t, buildsys.Options{StateDir: dir}), snap)
		for _, path := range stateFilesIn(t, dir) {
			if err := os.WriteFile(path, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		rep := mustBuild(t, persistBuilder(t, buildsys.Options{StateDir: dir}), snap)
		if rep.UnitsCompiled != len(snap) {
			t.Fatalf("%s: compiled %d of %d units, want a cold start", golden, rep.UnitsCompiled, len(snap))
		}
		if _, _, skipped := rep.Stats().Totals(); skipped != 0 {
			t.Fatalf("%s: cold start skipped %d passes", golden, skipped)
		}
		if codegen.DisassembleProgram(rep.Program) != want {
			t.Fatalf("%s: cold start differs from the stateless oracle", golden)
		}
		for _, path := range stateFilesIn(t, dir) {
			if st, err := state.Load(path); err != nil || st.Object == nil {
				t.Fatalf("%s: %s not rewritten in the current layout (err %v)", golden, filepath.Base(path), err)
			}
		}
	}
}

// TestOrphanStateRemovedAcrossProcesses: a unit deleted while no builder
// was alive leaves a state file that no in-memory entry names; the next
// process's first build removes it.
func TestOrphanStateRemovedAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()
	snap["extra.mc"] = []byte(`func extra(x int) int { return x + 1; }`)
	mustBuild(t, persistBuilder(t, buildsys.Options{StateDir: dir}), snap)
	orphan := stateFileOf(t, dir, "extra.mc")

	delete(snap, "extra.mc")
	rep := mustBuild(t, persistBuilder(t, buildsys.Options{StateDir: dir}), snap)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned state file %s survived the next process (stat err %v)", filepath.Base(orphan), err)
	}
	if got := len(stateFilesIn(t, dir)); got != len(snap) {
		t.Fatalf("%d state files left for %d units", got, len(snap))
	}
	if rep.UnitsCompiled != 0 || rep.Metrics[obs.CtrStateIOErrors] != 0 {
		t.Fatalf("compiled %d, io errors %d; live units must be served untouched",
			rep.UnitsCompiled, rep.Metrics[obs.CtrStateIOErrors])
	}
	if codegen.DisassembleProgram(rep.Program) != statelessDisasm(t, snap) {
		t.Fatal("program differs from the stateless oracle")
	}
}

// TestRestartFootprintCatchesLie: a unit restored from disk brings its
// persisted footprint, so a new process cross-checks it like an in-memory
// object. A lying invalidator (first-seen hashes frozen) claims lib.mc is
// unchanged after an edit; under enforcement the restored footprint flags
// the miss and the unit recompiles instead of serving the stale object.
func TestRestartFootprintCatchesLie(t *testing.T) {
	frozen := map[string]uint64{}
	hook := func(unit string, _ []byte, honest uint64) uint64 {
		if h, ok := frozen[unit]; ok {
			return h
		}
		frozen[unit] = honest
		return honest
	}
	opts := buildsys.Options{StateDir: t.TempDir(), Footprint: true, EnforceFootprint: true, ContentHashHook: hook}
	mustBuild(t, persistBuilder(t, opts), twoUnitSnap())

	edited := chaosEditedSnap() // lib.mc edited
	rep := mustBuild(t, persistBuilder(t, opts), edited)
	if len(rep.FootprintMissed) != 1 || rep.FootprintMissed[0] != "lib.mc" {
		t.Fatalf("missed invalidations %v, want [lib.mc]", rep.FootprintMissed)
	}
	if rep.UnitsCompiled != 1 || !rep.Units["lib.mc"].Compiled {
		t.Fatalf("compiled %d units (%v), want only lib.mc", rep.UnitsCompiled, rep.Units)
	}
	if codegen.DisassembleProgram(rep.Program) != statelessDisasm(t, edited) {
		t.Fatal("program differs from the stateless oracle")
	}
}

// TestObjectsStayWithStatefulMode: a state file keys its object by source
// alone, so only the stateful mode writes objects and only it serves them.
// Objects a predictive build (the unguarded ablation) compiled must never
// reach a later build, and a stateless build over a stateful state
// directory must compile everything itself to stay an independent oracle.
func TestObjectsStayWithStatefulMode(t *testing.T) {
	snap := twoUnitSnap()
	want := statelessDisasm(t, snap)
	build := func(mode compiler.Mode, dir string) *buildsys.Report {
		t.Helper()
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: mode, StateDir: dir, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep := mustBuild(t, b, snap)
		if codegen.DisassembleProgram(rep.Program) != want {
			t.Fatalf("%v build differs from the stateless oracle", mode)
		}
		return rep
	}

	// Predictive first: its state files carry no object, so the stateful
	// build after it compiles every unit.
	dir := t.TempDir()
	build(compiler.ModePredictive, dir)
	for _, path := range stateFilesIn(t, dir) {
		if st, err := state.Load(path); err != nil || st.Object != nil {
			t.Fatalf("predictive build stored an object in %s (err %v)", filepath.Base(path), err)
		}
	}
	if rep := build(compiler.ModeStateful, dir); rep.UnitsCompiled != len(snap) {
		t.Fatalf("stateful after predictive compiled %d of %d units", rep.UnitsCompiled, len(snap))
	}

	// Stateful first: its objects are served to neither other mode.
	for _, mode := range []compiler.Mode{compiler.ModePredictive, compiler.ModeStateless} {
		dir := t.TempDir()
		build(compiler.ModeStateful, dir)
		if rep := build(mode, dir); rep.UnitsCompiled != len(snap) {
			t.Fatalf("%v after stateful compiled %d of %d units", mode, rep.UnitsCompiled, len(snap))
		}
	}
}
