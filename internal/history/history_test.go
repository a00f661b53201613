package history

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"statefulcc/internal/vfs"
)

func testRecord(skipPct float64, totalNS int64) *Record {
	return &Record{
		TimeUnixMS:    1700000000000,
		Mode:          "stateful",
		Workers:       2,
		TotalNS:       totalNS,
		CompileNS:     totalNS / 2,
		LinkNS:        totalNS / 10,
		UnitsCompiled: 1,
		UnitsCached:   1,
		SkipRatePct:   skipPct,
		Metrics:       map[string]int64{"pass.runs": 10, "pass.skipped": 5, "build.count": 1},
		Units: map[string]UnitRecord{
			"a.mc": {CompileNS: totalNS / 2, Passes: []PassDecision{
				{Pass: "mem2reg", Slot: 0, Reason: "cold-state", Runs: 1, Cold: 1},
			}},
			"b.mc": {Cached: true},
		},
	}
}

// TestAppendLoadRoundTrip: records append with monotonic Seq and read back
// in order with their content intact.
func TestAppendLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	for i := 0; i < 3; i++ {
		if err := Append(path, testRecord(float64(i), int64(1000+i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != i+1 {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if r.SkipRatePct != float64(i) {
			t.Errorf("record %d: skip %v, want %v", i, r.SkipRatePct, float64(i))
		}
	}
	if got := recs[0].Units["a.mc"].Passes[0].Reason; got != "cold-state" {
		t.Errorf("decision reason lost: %q", got)
	}
	if !recs[1].Units["b.mc"].Cached {
		t.Error("cached flag lost")
	}
}

// TestRotation: the file is bounded to the newest limit records and Seq
// keeps rising across rotations.
func TestRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	const limit = 5
	for i := 0; i < limit*3; i++ {
		if err := Append(path, testRecord(float64(i), 1000), limit); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != limit {
		t.Fatalf("after rotation: %d records, want %d", len(recs), limit)
	}
	for i, r := range recs {
		want := limit*3 - limit + i + 1
		if r.Seq != want {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, want)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != limit {
		t.Errorf("file has %d lines, want %d", n, limit)
	}
}

// TestTornTrailingLine: a crash mid-append leaves a partial trailing line;
// the next Load drops it and the next Append still succeeds with a correct
// Seq — the recorder never wedges.
func TestTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	for i := 0; i < 2; i++ {
		if err := Append(path, testRecord(1, 1000), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the torn write: half a JSON object, no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"time_unix_ms":17`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn line not dropped: %d records, want 2", len(recs))
	}

	if err := Append(path, testRecord(2, 2000), 0); err != nil {
		t.Fatal(err)
	}
	recs, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("after recovery append: %d records, want 3", len(recs))
	}
	if recs[2].Seq != 3 {
		t.Errorf("recovered seq %d, want 3", recs[2].Seq)
	}
	// The rewrite path must have purged the torn bytes entirely: every
	// remaining line parses as a full record.
	data, _ := os.ReadFile(path)
	for _, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Errorf("torn bytes survived rewrite: line %q: %v", line, err)
		}
	}
}

// TestAppendReadFaultKeepsHistory: a read error while the append scans a
// full file fails the append and leaves the file byte-identical — it must
// not be mistaken for a short history and rotated down to one record.
func TestAppendReadFaultKeepsHistory(t *testing.T) {
	const limit = 20
	for nth := 1; nth <= 3; nth++ {
		path := filepath.Join(t.TempDir(), FileName)
		for i := 0; i < limit; i++ {
			if err := Append(path, testRecord(1, 1000), limit); err != nil {
				t.Fatal(err)
			}
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
			vfs.Rule{Op: vfs.OpRead, Path: FileName, Nth: nth, Kind: vfs.FaultError}))
		if err := AppendFS(ffs, path, testRecord(2, 2000), limit); err == nil {
			t.Fatalf("read %d faulted: append reported success", nth)
		}
		if len(ffs.Injected()) != 1 {
			t.Fatalf("read %d: fault fired %d times, want 1", nth, len(ffs.Injected()))
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("read %d faulted: history file changed", nth)
		}
		rec := testRecord(3, 3000)
		if err := Append(path, rec, limit); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != limit+1 {
			t.Fatalf("read %d: next clean append got seq %d, want %d", nth, rec.Seq, limit+1)
		}
	}
}

// TestAppendSeqSkipsCorruptNewestLine: when the newest complete line does
// not parse, Seq continues from the newest line that does.
func TestAppendSeqSkipsCorruptNewestLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	for i := 0; i < 3; i++ {
		if err := Append(path, testRecord(1, 1000), 0); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{garbage}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rec := testRecord(2, 2000)
	if err := Append(path, rec, 0); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 4 {
		t.Fatalf("seq after corrupt newest line: %d, want 4", rec.Seq)
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Seq != 4 {
		t.Fatalf("got %d records, want 4 ending at seq 4", len(recs))
	}
}

// TestAppendRotationWorkCounts pins rotation's deterministic work: a full
// file drops its oldest tenth in one rewrite (one createtemp, sync and
// rename each), so at limit 50 rotations happen at appends 51, 57, ...,
// 147 — 17 in 150 appends — and every other append is one O_APPEND open.
func TestAppendRotationWorkCounts(t *testing.T) {
	const limit, appends, rotations = 50, 150, 17
	path := filepath.Join(t.TempDir(), FileName)
	ffs := vfs.NewFaultFS(vfs.OS)
	for i := 1; i <= appends; i++ {
		rec := testRecord(1, 1000)
		if err := AppendFS(ffs, path, rec, limit); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != i {
			t.Fatalf("append %d got seq %d", i, rec.Seq)
		}
		recs, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if lo := min(i, limit-limit/10); len(recs) < lo || len(recs) > limit {
			t.Fatalf("after append %d: %d records, want [%d, %d]", i, len(recs), lo, limit)
		}
	}
	ops := map[vfs.Op]int{}
	for _, c := range ffs.Calls() {
		ops[c.Op]++
	}
	for op, want := range map[vfs.Op]int{
		vfs.OpCreateTemp: rotations, vfs.OpSync: rotations, vfs.OpRename: rotations,
		vfs.OpOpenFile: appends - rotations,
	} {
		if ops[op] != want {
			t.Errorf("%s ran %d times in %d appends, want %d", op, ops[op], appends, want)
		}
	}
}

// TestAppendLongLines: records longer than the scan's read buffer are
// counted, rotated and copied whole, and a long torn tail is dropped.
func TestAppendLongLines(t *testing.T) {
	const limit, metrics = 3, 8000 // ~200 KiB per line
	path := filepath.Join(t.TempDir(), FileName)
	big := func() *Record {
		rec := testRecord(1, 1000)
		for i := 0; i < metrics; i++ {
			rec.Metrics[fmt.Sprintf("m.%06d", i)] = int64(i)
		}
		return rec
	}
	for i := 0; i < 5; i++ {
		if err := Append(path, big(), limit); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)/2]
	torn = torn[bytes.LastIndexByte(torn, '\n')+1:]
	if err := os.WriteFile(path, append(data, torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, big(), limit); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != limit {
		t.Fatalf("got %d records, want %d", len(recs), limit)
	}
	for i, r := range recs {
		if r.Seq != 4+i || len(r.Metrics) != metrics+3 {
			t.Errorf("record %d: seq %d with %d metrics, want seq %d with %d",
				i, r.Seq, len(r.Metrics), 4+i, metrics+3)
		}
	}
	if data, _ = os.ReadFile(path); bytes.Count(data, []byte("\n")) != limit {
		t.Errorf("file has %d lines, want %d", bytes.Count(data, []byte("\n")), limit)
	}
}

// TestAppendAllocsBounded: an append's allocations do not grow with the
// history it appends to — old records are scanned, not decoded.
func TestAppendAllocsBounded(t *testing.T) {
	allocs := func(records int) float64 {
		path := filepath.Join(t.TempDir(), FileName)
		for i := 0; i < records; i++ {
			if err := Append(path, testRecord(1, 1000), 0); err != nil {
				t.Fatal(err)
			}
		}
		rec := testRecord(1, 1000)
		return testing.AllocsPerRun(10, func() {
			// A limit above the file size keeps every run on one path.
			if err := Append(path, rec, 1000); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20), allocs(DefaultLimit)
	if large > small+4 {
		t.Errorf("append allocations grow with history size: %v on %d records, %v on 20",
			large, DefaultLimit, small)
	}
}

// TestDeterministicEncoding: encoding the same record twice is
// byte-identical (maps inside are key-sorted by encoding/json).
func TestDeterministicEncoding(t *testing.T) {
	rec := testRecord(42, 1234)
	rec.Metrics = map[string]int64{}
	for _, k := range []string{"z.last", "a.first", "m.mid", "pass.runs", "decision.cold_state"} {
		rec.Metrics[k] = int64(len(k))
	}
	a, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same record differ")
	}
	// Sorted keys: a.first must appear before z.last in the output.
	if bytes.Index(a, []byte("a.first")) > bytes.Index(a, []byte("z.last")) {
		t.Error("metrics keys not sorted in encoding")
	}
}

// TestCheckRegress covers the three tripwires and the healthy path.
func TestCheckRegress(t *testing.T) {
	base := []Record{
		{Seq: 1, SkipRatePct: 60, TotalNS: 10e6},
		{Seq: 2, SkipRatePct: 62, TotalNS: 10e6},
	}
	// Healthy: small wobble.
	res, err := CheckRegress(append(base, Record{Seq: 3, SkipRatePct: 58, TotalNS: 11e6}), RegressOptions{})
	if err != nil || res.Regressed {
		t.Fatalf("healthy history flagged: %+v err=%v", res, err)
	}
	// Skip-rate collapse.
	res, err = CheckRegress(append(base, Record{Seq: 3, SkipRatePct: 10, TotalNS: 10e6}), RegressOptions{})
	if err != nil || !res.Regressed {
		t.Fatalf("skip-rate drop not flagged: %+v err=%v", res, err)
	}
	// Wall-time blowup.
	res, err = CheckRegress(append(base, Record{Seq: 3, SkipRatePct: 61, TotalNS: 30e6}), RegressOptions{})
	if err != nil || !res.Regressed {
		t.Fatalf("wall-time rise not flagged: %+v err=%v", res, err)
	}
	// Skip-rate floor (CI smoke's "was a skip rate recorded at all").
	res, err = CheckRegress(append(base, Record{Seq: 3, SkipRatePct: 0.05, TotalNS: 1e6}),
		RegressOptions{SkipDropPts: 1000, MinSkipRatePct: 0.1})
	if err != nil || !res.Regressed {
		t.Fatalf("skip-rate floor not enforced: %+v err=%v", res, err)
	}
	// Too short.
	if _, err := CheckRegress(base[:1], RegressOptions{}); err == nil {
		t.Fatal("single-record history should error")
	}
}
