package buildsys

// Persistent per-unit state: the unit's dormancy records and, without a
// shared cache, its compiled object (state format v7), so a new process
// recompiles only the units that changed. Each unit's state lives in its
// own file under Options.StateDir, named from a sanitized unit name plus a
// hash of the full name (unit names contain path separators and may
// collide after sanitizing). The state is a pure optimization: loads that
// fail for any reason — missing file, truncation, corruption, version
// mismatch, injected I/O fault — yield a cold start, and save failures
// are reported as warnings and state.io_error counts rather than failing
// the build (internal/state writes atomically through the vfs seam, so a
// crashed or failed save never leaves a half-written file to confuse the
// next run). The chaos suite (chaos_test.go) walks every fault point on
// these paths and proves the degradation is graceful.

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"

	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/history"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
)

// stateSuffix is the per-unit state file extension.
const stateSuffix = ".state"

// statePath maps a unit name to its state file path ("" without StateDir).
func (b *Builder) statePath(unit string) string {
	if b.opts.StateDir == "" {
		return ""
	}
	var sb strings.Builder
	for _, r := range unit {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	name := fmt16(contentHash([]byte(unit)))
	return filepath.Join(b.opts.StateDir, sb.String()+"-"+name+stateSuffix)
}

// fmt16 renders a hash as fixed-width lowercase hex without pulling fmt
// into the hot path.
func fmt16(v uint64) string {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = digits[v&0xF]
		v >>= 4
	}
	return string(buf[:])
}

// loadUnitState reads a unit's persisted state; any failure is a cold
// start, never an error. Real failures (as opposed to a simply missing
// file) additionally count as state.io_error and warn, so degraded disks
// are visible.
func (b *Builder) loadUnitState(unit string) *core.UnitState {
	path := b.statePath(unit)
	if path == "" {
		return nil
	}
	st, err := state.LoadFS(b.fs, path)
	if err != nil {
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: load %s: %v (running cold)", filepath.Base(path), err)
	}
	if err != nil || st == nil {
		b.ctr.stateLoadMisses.Inc()
		return nil
	}
	b.ctr.stateLoads.Inc()
	return st
}

// restoreUnit loads the state of a unit the builder has not seen yet into
// b.units, once per builder. The stored object comes along when it can
// still be served: this builder stores objects itself (storesObjects), the
// records are Compatible with the pipeline, the
// block's checksum verifies, the object decodes, and it was compiled from
// the source the declared hash names now (or footprint tracing is on, whose
// cross-check may still vouch for it). The partition loop then decides
// exactly as it does for an object compiled by this process. A damaged
// object is never served: the unit recompiles with its dormancy records,
// and the damage counts as state.io_error. Returns nil when no state
// loaded.
func (b *Builder) restoreUnit(unit string, declared uint64) *unitEntry {
	st := b.loadUnitState(unit)
	if st == nil {
		return nil
	}
	so := st.Object
	st.Object = nil // the entry holds the decoded object; keep the state dormancy-only
	e := &unitEntry{state: st}
	if n, err := state.FileSize(st); err == nil {
		e.stateBytes = n
	}
	b.units[unit] = e
	if so == nil || !b.storesObjects() || !st.Compatible(b.opts.Pipeline) ||
		(so.SourceHash != declared && !b.footprintOn()) {
		return e
	}
	payload, err := state.UnpackObject(so)
	var obj *codegen.Object
	if err == nil {
		obj, err = cas.DecodeObject(payload)
	}
	if err != nil {
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: unit %s: stored object rejected: %v (recompiling)", unit, err)
		return e
	}
	e.hash, e.obj, e.fp = so.SourceHash, obj, st.Footprint
	return e
}

// saveUnitState persists a unit's state; failures degrade to a warning and
// a state.io_error count (state is advisory, and the atomic writer never
// leaves partial files).
func (b *Builder) saveUnitState(unit string, st *core.UnitState) {
	path := b.statePath(unit)
	if path == "" {
		return
	}
	if err := state.SaveFS(b.fs, path, st); err != nil {
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: save %s: %v (state not persisted)", filepath.Base(path), err)
		return
	}
	b.ctr.stateSaves.Inc()
}

// storesObjects reports whether this builder writes compiled objects into
// state files and serves them back: only the stateful mode without a
// shared cache. The state file keys an object by its source alone, so a
// mode that may not write it must not read it either — a predictive
// (unguarded ablation) object must never outlive its run, and a stateless
// build stays an independent oracle. With a CAS the object already lives
// there under the same source-keyed action, so each object keeps one home.
func (b *Builder) storesObjects() bool {
	return b.opts.Mode == compiler.ModeStateful && b.cas == nil && b.opts.StateDir != ""
}

// saveCompiled persists a compiled unit's state together with its object
// (when storesObjects), so a later process can serve the unit without
// compiling it. The in-memory state stays dormancy-only (the entry holds
// the object itself).
func (b *Builder) saveCompiled(j compileJob, st *core.UnitState, obj *codegen.Object) {
	if obj != nil && b.storesObjects() {
		st.Object = state.PackObject(j.hash, cas.EncodeObject(obj))
	}
	b.saveUnitState(j.name, st)
	st.Object = nil
}

// sweepStateTemp removes orphaned atomic-write temp files (state and
// history rotation) from StateDir. A process that crashes between temp
// creation and rename leaves one behind; they are never read back, so a
// new builder (the directory's single writer) deletes them at startup.
// The listing's state files are kept for the first build's orphan sweep
// (sweepOrphans). Failures only count — the state directory may not even
// exist yet.
func (b *Builder) sweepStateTemp() {
	if b.opts.StateDir == "" {
		return
	}
	entries, err := b.fs.ReadDir(b.opts.StateDir)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			b.ctr.stateIOErrors.Inc()
		}
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), stateSuffix) {
			b.stateFiles = append(b.stateFiles, e.Name())
			continue
		}
		stateTemp, _ := filepath.Match(state.TempPattern, e.Name())
		histTemp, _ := filepath.Match(history.TempPattern, e.Name())
		if !stateTemp && !histTemp {
			continue
		}
		if err := b.fs.Remove(filepath.Join(b.opts.StateDir, e.Name())); err != nil {
			b.ctr.stateIOErrors.Inc()
		}
	}
}

// sweepOrphans removes the state files, listed when the builder started,
// that belong to no unit of its first snapshot: units deleted or renamed
// while no builder was alive. Later removals are handled as they happen
// (BuildContext drops removed units' state).
func (b *Builder) sweepOrphans(snap project.Snapshot) {
	if len(b.stateFiles) == 0 {
		return
	}
	live := make(map[string]bool, len(snap))
	for name := range snap {
		live[filepath.Base(b.statePath(name))] = true
	}
	for _, name := range b.stateFiles {
		if live[name] {
			continue
		}
		if err := b.fs.Remove(filepath.Join(b.opts.StateDir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			b.ctr.stateIOErrors.Inc()
			b.warnf("state: remove %s: %v (stale state file left behind)", name, err)
		}
	}
	b.stateFiles = nil
}

// removeUnitState deletes a removed unit's state file so StateDir tracks
// the live project.
func (b *Builder) removeUnitState(unit string) {
	path := b.statePath(unit)
	if path == "" {
		return
	}
	if err := b.fs.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: remove %s: %v (stale state file left behind)", filepath.Base(path), err)
	}
}
