package state_test

// Golden-file pins of the on-disk layout. The state format is a
// cross-process, cross-version contract: a byte produced by one build is
// consumed by a later process of a possibly different binary. These tests
// freeze the exact bytes so any encoder change — intended or not — shows
// up as a diff against testdata/, and an intended change forces a
// conscious FormatVersion bump plus `go test ./internal/state -update`.
//
// Pins: the current v7 layout (encoder + decoder; the v6 layout plus the
// object block), and the frozen v6 and v5 files (decode-only) from before
// the object and footprint blocks. The decoder must keep accepting the
// frozen versions (migration path for state written by released
// binaries). The frozen v4 and v3 files pin the other side: those layouts
// are no longer decoded, and must be rejected so the unit runs cold.

import (
	"bytes"
	"encoding/hex"
	"flag"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/footprint"
	"statefulcc/internal/state"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenState exercises every shape the format distinguishes: unseen
// slots, seen-changed slots, seen-dormant slots sharing one hash-table
// entry, a zero-slot function, and an empty-but-seen module block. All
// values are normalized the way the encoder stores them (costs in 256ns
// quanta) so the decoded state compares deeply equal.
func goldenState() *core.UnitState {
	return &core.UnitState{
		Unit:         "golden.mc",
		PipelineHash: 0x1122334455667788,
		ModuleSlots: []core.Record{
			{},                                   // unseen
			{InputHash: 0xAABBCCDD, CostNS: 512}, // seen dormant
			{Changed: true},                      // seen changed: no hash, no cost
			{InputHash: 0xAABBCCDD, CostNS: 256}, // shares the hash-table entry
		},
		ModuleSeen: []bool{false, true, true, true},
		Funcs: map[string]*core.FuncState{
			"helper": {
				Slots: []core.Record{
					{InputHash: 0x0102030405060708, CostNS: 0},                  // dormant, zero cost
					{InputHash: 0x0102030405060708, CostNS: (1<<63 - 1) &^ 255}, // max quantized EWMA
				},
				Seen: []bool{true, true},
			},
			"zero_slots": {Slots: []core.Record{}, Seen: []bool{}},
		},
	}
}

// goldenQuarantinedState adds the v4+ quarantine block shapes: a per-pass
// quarantine with a nonzero clean count.
func goldenQuarantinedState() *core.UnitState {
	st := goldenState()
	st.Quarantine = &core.Quarantine{
		Reason: core.QuarantineUnsound,
		Clean:  2,
		Passes: []string{"dce", "simplify"},
	}
	return st
}

func checkGolden(t *testing.T, name string, st *core.UnitState,
	encode func(io.Writer, *core.UnitState) error) {
	t.Helper()
	path := filepath.Join("testdata", name)

	var buf bytes.Buffer
	if err := encode(&buf, st); err != nil {
		t.Fatal(err)
	}

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoder output differs from the pinned %s bytes — this breaks "+
			"states written by released binaries; bump FormatVersion if intended\n"+
			"got:\n%s\nwant:\n%s", name, hex.Dump(buf.Bytes()), hex.Dump(want))
	}

	// The pinned bytes must also decode back to exactly the source state —
	// the decoder half of the contract.
	got, err := state.Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("pinned golden bytes no longer decode: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("golden bytes decode to a different state:\ngot:  %+v\nwant: %+v", got, st)
	}
}

// goldenFootprintState adds the v6 footprint block: every entry scope
// (invalidating, advisory, link) in canonical order, plus the declared
// hash recorded verbatim.
func goldenFootprintState() *core.UnitState {
	st := goldenState()
	st.Footprint = &footprint.Record{
		DeclaredHash: 0xDEADBEEF12345678,
		Entries: []footprint.Entry{
			{Kind: footprint.KindSource, Name: "golden.mc", Hash: 0x1111},
			{Kind: footprint.KindPipeline, Name: "pipeline", Hash: 0x2222},
			{Kind: footprint.KindFile, Name: "cache/golden-0011223344556677.state", Hash: 0x3333},
			{Kind: footprint.KindCall, Name: "ext_helper", Hash: 2},
			{Kind: footprint.KindGlobal, Name: "g0", Hash: 0x4444},
		},
	}
	return st
}

// goldenObjectState adds the v7 object block. Packed is a stored
// (uncompressed) deflate block, so the pin depends on the layout alone and
// not on the compressor's output, and UnpackObject still accepts it.
func goldenObjectState() *core.UnitState {
	st := goldenFootprintState()
	packed := []byte{0x01, 0x03, 0x00, 0xfc, 0xff, 'o', 'b', 'j'}
	st.Object = &core.StoredObject{
		SourceHash: 0x0F0E0D0C0B0A0908,
		Sum:        crc64.Checksum(packed, crc64.MakeTable(crc64.ECMA)),
		Packed:     packed,
	}
	return st
}

func TestGoldenFormatV7(t *testing.T) {
	if state.FormatVersion != 7 {
		t.Fatalf("FormatVersion is %d; regenerate the golden files for the new layout "+
			"(go test ./internal/state -update) and rename them accordingly", state.FormatVersion)
	}
	checkGolden(t, "unitstate_v7.golden", goldenState(), state.Encode)
	checkGolden(t, "unitstate_v7_quarantined.golden", goldenQuarantinedState(), state.Encode)
	checkGolden(t, "unitstate_v7_footprint.golden", goldenFootprintState(), state.Encode)
	checkGolden(t, "unitstate_v7_object.golden", goldenObjectState(), state.Encode)

	data, err := os.ReadFile(filepath.Join("testdata", "unitstate_v7_object.golden"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := state.DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := state.UnpackObject(st.Object)
	if err != nil || string(payload) != "obj" {
		t.Fatalf("pinned object block unpacks to %q, %v; want \"obj\"", payload, err)
	}
}

// TestGoldenFormatV6 pins the decode side of the v6 layout: the frozen v6
// files (written before the object block existed) must keep decoding to
// the same states, with no object. No v6 encoder is retained, so these
// files are never regenerated.
func TestGoldenFormatV6(t *testing.T) {
	checkFrozen(t, "unitstate_v6.golden", goldenState())
	checkFrozen(t, "unitstate_v6_quarantined.golden", goldenQuarantinedState())
	checkFrozen(t, "unitstate_v6_footprint.golden", goldenFootprintState())
}

// TestGoldenV5Frozen pins the decode side of the v5 layout: the frozen v5
// files (written before the footprint block existed) must keep decoding to
// the same states — with nil footprints — forever.
func TestGoldenV5Frozen(t *testing.T) {
	checkFrozen(t, "unitstate_v5.golden", goldenState())
	checkFrozen(t, "unitstate_v5_quarantined.golden", goldenQuarantinedState())
}

// checkFrozen decodes a frozen golden file and requires exactly st (whose
// footprint and object are nil where the layout predates them).
func checkFrozen(t *testing.T, file string, st *core.UnitState) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("frozen golden file missing: %v", err)
	}
	got, err := state.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s no longer decodes — migration path broken: %v", file, err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("%s decodes to a different state:\ngot:  %+v\nwant: %+v", file, got, st)
	}
}

// TestLegacyLayoutsRejected: the frozen v4 and v3 files are refused with a
// version error, never misparsed. Their records were written under an
// older core.StateVersion and could not pass Compatible anyway, so a
// rejected file costs exactly what it did before: a cold compile.
func TestLegacyLayoutsRejected(t *testing.T) {
	for _, file := range []string{
		"unitstate_v4.golden", "unitstate_v4_quarantined.golden", "unitstate_v3.golden",
	} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatalf("frozen golden file missing: %v", err)
		}
		st, err := state.DecodeBytes(data)
		if err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("%s: decode = %+v, %v; want an unsupported-version error", file, st, err)
		}
	}
}

// TestDecodeEveryPrefix feeds the decoder every strict prefix of the
// golden v7 files (and the frozen v6/v5 ones). A truncated state file —
// the torn-write shape the atomic saver is designed to prevent but a
// hostile filesystem can still produce — must always be rejected, never
// misparsed into a partial state.
func TestDecodeEveryPrefix(t *testing.T) {
	for _, file := range []string{
		"unitstate_v7.golden", "unitstate_v7_quarantined.golden",
		"unitstate_v7_footprint.golden", "unitstate_v7_object.golden",
		"unitstate_v6.golden", "unitstate_v6_quarantined.golden",
		"unitstate_v6_footprint.golden",
		"unitstate_v5.golden", "unitstate_v5_quarantined.golden",
	} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatalf("golden file missing: %v", err)
		}
		for n := 0; n < len(data); n++ {
			if st, err := state.Decode(bytes.NewReader(data[:n])); err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded without error: %+v",
					file, n, len(data), st)
			}
		}
	}
}
