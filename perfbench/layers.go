package main

// Per-layer accounting of one recorded build. Every instant of the
// build's wall time goes to exactly one bucket:
//
//   - on the calling goroutine: project.LoadDir, buildsys.NewBuilder, the
//     link, the flight-recorder append (the envelope of its file calls);
//   - inside the compile phase, the time the units' intervals cover is
//     split among the layers the workers spent it in (state and history
//     file calls, shared-cache calls, compile stages), in proportion to
//     each layer's share of the workers' summed busy time. With both
//     workers busy that is exactly half of each worker's time; with one,
//     all of it;
//   - everything else (content hashing, commit bookkeeping, scheduling
//     gaps, blob decoding, the builder's own per-unit work) is
//     buildsys.unattributed_ms.
//
// So the leaf layers plus buildsys.unattributed_ms sum to the wall time by
// construction; how small the unattributed share stays is the measure of
// how much the named layers explain.

import (
	"sort"
	"strings"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/obs"
)

// leafLayers are the wall-time buckets, in report order.
var leafLayers = []string{
	"project.load_ms", "buildsys.new_builder_ms",
	"compiler.frontend_ms", "core.passes_ms", "fingerprint.hash_ms", "compiler.codegen_ms",
	"state.load_ms", "state.write_ms", "state.fsync_ms", "state.rename_ms",
	"history.append_ms", "codegen.link_ms",
	"cas.fetch_ms", "cas.put_ms", "cas.lease_ms",
	"buildsys.unattributed_ms",
}

// attribute derives one recorded build's per-layer figures from its spans
// (wall-time buckets in ms, counts per build) and its counter deltas.
func attribute(spans []span, rep *buildsys.Report, delta map[string]int64) map[string]float64 {
	v := map[string]float64{}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var wall int64
	phaseLo, phaseHi := int64(0), int64(-1)
	for _, s := range spans {
		if s.Name == "buildsys.compile_phase" {
			phaseLo, phaseHi = s.Start, s.End
		}
	}
	histLo, histHi := int64(-1), int64(-1)
	var units [][2]int64
	worker := map[string]int64{}
	for _, s := range spans {
		d := s.End - s.Start
		switch s.Name {
		case "build":
			wall = d
		case "project.load":
			v["project.load_ms"] += ms(d)
		case "buildsys.new_builder":
			v["buildsys.new_builder_ms"] += ms(d)
		case "codegen.link":
			v["codegen.link_ms"] += ms(d)
		case "buildsys.unit":
			units = append(units, [2]int64{s.Start, s.End})
		}
		layer, op, _ := strings.Cut(s.Name, ".")
		switch {
		case layer == "history":
			if histLo < 0 || s.Start < histLo {
				histLo = s.Start
			}
			if s.End > histHi {
				histHi = s.End
			}
			v["history.bytes_read"] += float64(s.Read)
			v["history.bytes_written"] += float64(s.Written)
			if op == "fsync" {
				v["history.fsyncs"]++
			}
		case layer == "state":
			v["state.bytes_written"] += float64(s.Written)
			if op == "fsync" {
				v["state.fsyncs"]++
			}
		case s.Name == "cas.fetch":
			v["cas.bytes_fetched"] += float64(s.Read)
		case s.Name == "cas.put":
			v["cas.bytes_published"] += float64(s.Written)
		}
		if (layer == "state" || layer == "cas") && s.Start >= phaseLo && s.Start <= phaseHi {
			switch op {
			case "meta":
				op = "write"
			case "fsync":
				worker["state.write_ms"] -= d // the fsync runs inside the write handle's span
			}
			worker[layer+"."+op+"_ms"] += d
		}
	}
	if histLo >= 0 {
		v["history.append_ms"] = ms(histHi - histLo)
	}

	hash := delta[obs.CtrHashNS]
	worker["compiler.frontend_ms"] = delta[obs.CtrFrontendNS]
	worker["core.passes_ms"] = max(delta[obs.CtrPassesNS]-hash, 0)
	worker["fingerprint.hash_ms"] = hash
	worker["compiler.codegen_ms"] = delta[obs.CtrCodegenNS]

	// Split the units' covered wall time among the workers' layers.
	busy, covered := unionLen(units)
	var named int64
	for _, ns := range worker {
		named += max(ns, 0)
	}
	if den := max(busy, named); den > 0 {
		scale := float64(covered) / float64(den)
		for name, ns := range worker {
			v[name] += ms(max(ns, 0)) * scale
		}
	}

	v["buildsys.wall_ms"] = ms(wall)
	attributed := 0.0
	for _, name := range leafLayers[:len(leafLayers)-1] {
		attributed += v[name]
	}
	v["buildsys.unattributed_ms"] = ms(wall) - attributed

	v["buildsys.compile_phase_ms"] = ms(rep.CompileNS)
	v["buildsys.worker_util_pct"] = 100 * rep.Utilization()
	v["buildsys.units_compiled"] = float64(rep.UnitsCompiled)
	v["buildsys.units_cached"] = float64(rep.UnitsCached)
	v["core.pass_runs"] = float64(delta[obs.CtrPassRuns])
	v["core.pass_skipped"] = float64(delta[obs.CtrPassSkipped])
	v["core.fp_mismatch"] = float64(delta[obs.CtrDecFPMismatch])
	v["core.saved_ms_est"] = ms(delta[obs.CtrPassSavedNS])
	v["fingerprint.hashes"] = float64(delta[obs.CtrHashes])
	v["fingerprint.blocks_memoized"] = float64(delta[obs.CtrBlocksMemoized])
	v["fingerprint.blocks_rehashed"] = float64(delta[obs.CtrBlocksRehashed])
	v["cas.hits"] = float64(delta[obs.CtrCASHits])
	v["cas.misses"] = float64(delta[obs.CtrCASMisses])
	v["cas.coalesced"] = float64(delta[obs.CtrCASCoalesced])
	v["cas.retries"] = float64(delta[obs.CtrCASRetries])
	return v
}

// unionLen returns the summed length of the intervals and the length of
// their union.
func unionLen(iv [][2]int64) (sum, union int64) {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var lo, hi int64 = 0, -1
	for _, x := range iv {
		sum += x[1] - x[0]
		if x[0] > hi {
			if hi > lo {
				union += hi - lo
			}
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	if hi > lo {
		union += hi - lo
	}
	return sum, union
}
