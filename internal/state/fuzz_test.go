package state_test

// Native fuzz target for the state decoder — the one parser in the system
// that consumes attacker-grade input (a state directory is plain files;
// anything can be in them). Properties:
//
//  1. Decode never panics and never over-allocates, no matter the bytes:
//     every slice it grows is bounded by the bytes actually present, not
//     by counts declared in the header. UnpackObject, run on every object
//     block Decode accepts, never panics either, and its inflation is
//     capped.
//  2. Anything Decode accepts is canonical: re-encoding the decoded state
//     succeeds, FileSize agrees with the re-encoded length, and decoding
//     the re-encoding reproduces the state exactly (older versions
//     migrate to the current layout in the process).
//
// Run with: go test -fuzz FuzzStateDecode ./internal/state

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/footprint"
	"statefulcc/internal/state"
)

// fuzzSeedStates are hand-built states spanning the format's shapes:
// empty, module-only, shared dormant hashes, changed and unseen slots,
// zero-slot functions, a footprint, and v7 object blocks (a packed object
// and an empty one).
func fuzzSeedStates() []*core.UnitState {
	return []*core.UnitState{
		{
			Unit:        "empty.mc",
			Funcs:       map[string]*core.FuncState{},
			ModuleSlots: []core.Record{},
			ModuleSeen:  []bool{},
		},
		{
			Unit:         "mod.mc",
			PipelineHash: 0xDEADBEEF,
			Funcs:        map[string]*core.FuncState{},
			ModuleSlots:  []core.Record{{InputHash: 7, CostNS: 256}, {Changed: true}},
			ModuleSeen:   []bool{true, true},
		},
		{
			Unit:         "funcs.mc",
			PipelineHash: 1,
			ModuleSlots:  []core.Record{{}},
			ModuleSeen:   []bool{false},
			Funcs: map[string]*core.FuncState{
				"shared": {
					Slots: []core.Record{
						{InputHash: 0xAB, CostNS: 512},
						{InputHash: 0xAB, CostNS: 512},
						{InputHash: 0xCD, CostNS: 0},
					},
					Seen: []bool{true, true, true},
				},
				"zero": {Slots: []core.Record{}, Seen: []bool{}},
			},
		},
		{
			Unit:        "fp.mc",
			Funcs:       map[string]*core.FuncState{},
			ModuleSlots: []core.Record{},
			ModuleSeen:  []bool{},
			Footprint: &footprint.Record{
				DeclaredHash: 0x0123456789ABCDEF,
				Entries: []footprint.Entry{
					{Kind: footprint.KindSource, Name: "fp.mc", Hash: 1},
					{Kind: footprint.KindPipeline, Name: "pipeline", Hash: 2},
					{Kind: footprint.KindFile, Name: "cache/fp.state", Hash: 3},
					{Kind: footprint.KindCall, Name: "callee", Hash: 2},
				},
			},
		},
		{
			Unit:        "obj.mc",
			Funcs:       map[string]*core.FuncState{},
			ModuleSlots: []core.Record{{InputHash: 5, CostNS: 256}},
			ModuleSeen:  []bool{true},
			Object:      state.PackObject(0xFEED, bytes.Repeat([]byte("func f() int { return 1; }\n"), 8)),
		},
		{
			Unit:        "empty-obj.mc",
			Funcs:       map[string]*core.FuncState{},
			ModuleSlots: []core.Record{},
			ModuleSeen:  []bool{},
			Object:      state.PackObject(0, nil),
		},
	}
}

func FuzzStateDecode(f *testing.F) {
	for _, st := range fuzzSeedStates() {
		var buf bytes.Buffer
		if err := state.Encode(&buf, st); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(append([]byte(nil), data...))
		// Truncations steer the fuzzer at every mid-structure boundary.
		cuts := []int{0, 4, 8, 12, len(data) / 2, len(data) - 1}
		if o := st.Object; o != nil {
			// ... and inside the object block: its marker, source hash,
			// checksum, length and payload.
			blk := len(data) - len(o.Packed) - 21
			cuts = append(cuts, blk, blk+1, blk+9, blk+17, blk+21+len(o.Packed)/2)
		}
		for _, n := range cuts {
			if n <= len(data) {
				f.Add(append([]byte(nil), data[:n]...))
			}
		}
	}
	// An object block whose checksum does not match its payload: Decode
	// accepts it (objects are verified lazily), UnpackObject must not.
	bad := fuzzSeedStates()[4]
	bad.Object.Sum++
	var buf bytes.Buffer
	if err := state.Encode(&buf, bad); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// The retired v3/v4 layouts, which must be rejected.
	for _, file := range []string{"unitstate_v3.golden", "unitstate_v4.golden", "unitstate_v4_quarantined.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Adversarial headers: valid magic/version, then huge declared counts
	// with no bytes behind them — the over-allocation shape — for every
	// accepted version.
	for _, v := range []uint32{5, 6, state.FormatVersion} {
		hdr := []byte("SCCSTATE")
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
		hdr = binary.LittleEndian.AppendUint64(hdr, 42)    // pipeline hash
		hdr = binary.LittleEndian.AppendUint32(hdr, 1<<19) // huge unit-name length
		f.Add(append([]byte(nil), hdr...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := state.Decode(bytes.NewReader(data))
		if err != nil {
			if st != nil {
				t.Fatal("Decode returned both a state and an error")
			}
			return
		}
		if st == nil {
			t.Fatal("Decode returned neither state nor error")
		}
		if st.Object != nil {
			if payload, err := state.UnpackObject(st.Object); err == nil {
				// A verified object re-packs to a block that unpacks to the
				// same bytes.
				again, err := state.UnpackObject(state.PackObject(st.Object.SourceHash, payload))
				if err != nil || !bytes.Equal(again, payload) {
					t.Fatalf("re-packed object does not unpack: %v", err)
				}
			}
		}

		// DecodeBytes is the same parser without the reader indirection;
		// it must agree byte-for-byte (the zero-copy load path).
		st0, err := state.DecodeBytes(append([]byte(nil), data...))
		if err != nil {
			t.Fatalf("DecodeBytes rejects what Decode accepted: %v", err)
		}
		if !reflect.DeepEqual(st, st0) {
			t.Fatalf("Decode and DecodeBytes disagree:\nreader: %+v\nbytes:  %+v", st, st0)
		}

		// Accepted input must round-trip canonically.
		var buf bytes.Buffer
		if err := state.Encode(&buf, st); err != nil {
			t.Fatalf("re-encoding a decoded state failed: %v", err)
		}
		n, err := state.FileSize(st)
		if err != nil {
			t.Fatalf("FileSize of a decoded state failed: %v", err)
		}
		if n != buf.Len() {
			t.Fatalf("FileSize %d disagrees with encoded length %d", n, buf.Len())
		}
		st2, err := state.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded state failed: %v", err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("re-encode/decode drifted:\nfirst:  %+v\nsecond: %+v", st, st2)
		}
	})
}
