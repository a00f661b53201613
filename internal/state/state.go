// Package state persists the stateful compiler's dormancy records to disk.
//
// The format is a compact little-endian binary layout with a magic/version
// header; writes are atomic (temp file + fsync + rename) so a crashed
// build or power loss never publishes a truncated state file — a corrupt
// or stale file is simply discarded by the loader and the next build runs
// cold, which is always safe because the records are a pure optimization.
// That degradation guarantee is proven, not asserted: all I/O goes through
// the internal/vfs seam (SaveFS/LoadFS), and the chaos suites walk every
// injectable fault point (docs/ROBUSTNESS.md).
//
// Layout (version 7). Two observations keep the dormancy records tiny,
// mirroring the paper's pitch:
//
//   - only *dormant* records can ever satisfy a skip, so records of active
//     passes need no fingerprint at all — just a flags byte; and
//
//   - a run of consecutive dormant passes shares one input fingerprint, so
//     the dormant hashes are stored once in a small distinct-hash table and
//     referenced by varint index.
//
// Costs are EWMA pass times quantized to 256ns units (they only feed
// estimated-savings reporting).
//
//	magic "SCCSTATE" | u32 version | u64 pipelineHash | string unit
//	quarantineBlock
//	u32 recLen | recordBlock(module slots)
//	u32 nFuncs | nFuncs × ( string name, u32 recLen, recordBlock(slots) )
//	footprintBlock                                        (v6+)
//	objectBlock                                           (v7+)
//
//	quarantineBlock: u8 present [, string reason, uvarint clean,
//	                 uvarint nPasses, nPasses × string ]
//
//	footprintBlock: u8 present [, u32 len, footprint binary encoding
//	                (internal/footprint, self-versioned canonical codec) ]
//
//	objectBlock: u8 present [, u64 declared source hash, u64 checksum,
//	             u32 len, flate-compressed object (cas.EncodeObject) ]
//
//	recordBlock: uvarint nSlots | uvarint nHashes | nHashes × u64 |
//	             nSlots × ( u8 flags [, uvarint hashIdx, uvarint cost256] )
//
// flags: bit0 = changed, bit1 = seen. hashIdx/cost follow only for seen
// dormant (changed=0) slots.
//
// The layout is zero-copy: the loader reads the whole file into one buffer
// and DecodeBytes slices it in place — strings (unit name, function names,
// quarantine reasons) and the packed object are *references into the
// buffer* (unsafe.String / subslices), never copies, and every record block
// carries a u32 byte length so a reader can locate any function's records
// without parsing the ones before it. The returned UnitState therefore
// aliases the input buffer; callers must not mutate it (LoadFS always hands
// DecodeBytes a fresh private buffer). Footprint entry names are private
// copies, not views.
//
// The object block is decoded lazily: DecodeBytes only slices it, and
// UnpackObject verifies its checksum and inflates it when the build system
// actually serves the object. A damaged block therefore costs that unit a
// recompile, not its dormancy records.
//
// Version 5 files (no footprint block) and version 6 files (no object
// block) still decode, with a nil footprint or object; the next save
// rewrites them as v7. Older layouts are rejected like any other unknown
// version: their records were written under an older core.StateVersion, so
// they could never pass Compatible, and the unit simply runs cold.
package state

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"unsafe"

	"statefulcc/internal/core"
	"statefulcc/internal/footprint"
	"statefulcc/internal/vfs"
)

var magic = [8]byte{'S', 'C', 'C', 'S', 'T', 'A', 'T', 'E'}

// FormatVersion is the on-disk layout version the encoder writes (v7: the
// v6 layout plus the trailing object block).
const FormatVersion = 7

// minFormatVersion is the oldest layout the decoder still accepts (v5, the
// first zero-copy layout).
const minFormatVersion = 5

// TempPattern is the glob the atomic writer's in-flight temp files match.
// A crash between temp creation and rename orphans one; owners of a state
// directory may sweep matches from a single-writer context (the files are
// never read back, so removal is always safe).
const TempPattern = ".state-*"

// Save writes the unit state to path atomically via the real filesystem.
func Save(path string, st *core.UnitState) error {
	return SaveFS(vfs.OS, path, st)
}

// SaveFS writes the unit state to path atomically through fsys (nil means
// the real filesystem): encode to a temp file, fsync it, then rename. The
// Sync matters — without it a power loss after the rename could publish
// an empty or truncated file; with it, either the old state or the
// complete new state is on disk.
func SaveFS(fsys vfs.FS, path string, st *core.UnitState) error {
	fsys = vfs.Default(fsys)
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	tmp, err := fsys.CreateTemp(filepath.Dir(path), TempPattern)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	defer fsys.Remove(tmp.Name())

	w := bufio.NewWriter(tmp)
	if err := Encode(w, st); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("state: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("state: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	return nil
}

// Load reads a unit state from the real filesystem; a missing file
// returns (nil, nil) and any malformed file returns an error the caller
// should treat as "run cold".
func Load(path string) (*core.UnitState, error) {
	return LoadFS(vfs.OS, path)
}

// LoadFS is Load through an injectable filesystem (nil means the real
// one). The whole file is read into one private buffer and decoded in
// place. Going through fsys.Open/Read (rather than mmap) keeps every byte
// of the load path under the fault-injection seam.
func LoadFS(fsys vfs.FS, path string) (*core.UnitState, error) {
	f, err := vfs.Default(fsys).Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	defer f.Close()
	buf, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	return DecodeBytes(buf)
}

// Encode streams the state in the current (v7) binary format. Functions
// are written in name order so the output is deterministic.
func Encode(w io.Writer, st *core.UnitState) error {
	e := &encoder{w: w}
	e.bytes(magic[:])
	e.u32(FormatVersion)
	e.u64(st.PipelineHash)
	e.str(st.Unit)

	e.quarantineBlock(st.Quarantine)

	// Record blocks are length-prefixed so a reader can slice its way to
	// any function without parsing the blocks before it. The block is
	// staged in a scratch buffer to learn its length; the buffer is reused
	// across functions.
	var scratch bytes.Buffer
	e.sizedRecordBlock(&scratch, st.ModuleSlots, st.ModuleSeen)

	names := make([]string, 0, len(st.Funcs))
	for name := range st.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	e.u32(uint32(len(names)))
	for _, name := range names {
		fs := st.Funcs[name]
		e.str(name)
		e.sizedRecordBlock(&scratch, fs.Slots, fs.Seen)
	}
	e.footprintBlock(st.Footprint)
	e.objectBlock(st.Object)
	return e.err
}

// footprintBlock writes the optional dependency footprint (v6+) as a
// length-prefixed embedding of the footprint package's own canonical
// encoding.
func (e *encoder) footprintBlock(fp *footprint.Record) {
	if fp == nil {
		e.bytes([]byte{0})
		return
	}
	e.bytes([]byte{1})
	body := fp.AppendBinary(nil)
	e.u32(uint32(len(body)))
	e.bytes(body)
}

func (d *bdec) footprintBlock() *footprint.Record {
	fb := d.byte()
	if d.err != nil || fb == 0 {
		return nil
	}
	if fb != 1 {
		d.err = fmt.Errorf("bad footprint marker %d", fb)
		return nil
	}
	n := d.u32()
	b := d.take(int(n))
	if d.err != nil {
		return nil
	}
	fp, err := footprint.DecodeBinary(b)
	if err != nil {
		d.err = err
		return nil
	}
	return fp
}

// objectBlock writes the optional stored object (v7+) verbatim: it was
// packed (compressed and checksummed) by PackObject.
func (e *encoder) objectBlock(o *core.StoredObject) {
	if o == nil {
		e.bytes([]byte{0})
		return
	}
	e.bytes([]byte{1})
	e.u64(o.SourceHash)
	e.u64(o.Sum)
	e.u32(uint32(len(o.Packed)))
	e.bytes(o.Packed)
}

// objectBlock slices the stored object out of the buffer without
// verifying or inflating it (UnpackObject does both, on demand).
func (d *bdec) objectBlock() *core.StoredObject {
	fb := d.byte()
	if d.err != nil || fb == 0 {
		return nil
	}
	if fb != 1 {
		d.err = fmt.Errorf("bad object marker %d", fb)
		return nil
	}
	o := &core.StoredObject{SourceHash: d.u64(), Sum: d.u64()}
	o.Packed = d.take(int(d.u32()))
	if d.err != nil {
		return nil
	}
	return o
}

// maxObjectBytes caps an inflated object, so a hostile block cannot
// inflate without bound; real objects are orders of magnitude smaller.
const maxObjectBytes = 64 << 20

var (
	crcTable = crc64.MakeTable(crc64.ECMA)

	// packer is the one flate writer PackObject shares, built on first use.
	// A writer costs ~1.2 MB to build and compressing a unit ~0.1 ms, so
	// one writer reused under a lock beats a sync.Pool, which drops its
	// writers at every garbage collection and makes each build (and each
	// concurrent worker) build and zero new ones.
	packMu sync.Mutex
	packer *flate.Writer

	flateReader = sync.Pool{New: func() any { return flate.NewReader(nil) }}
)

// PackObject compresses an encoded object (the cas.EncodeObject bytes)
// into the v7 object block for source sourceHash.
func PackObject(sourceHash uint64, payload []byte) *core.StoredObject {
	var buf bytes.Buffer
	buf.Grow(len(payload) / 2)
	packMu.Lock()
	if packer == nil {
		packer, _ = flate.NewWriter(nil, flate.BestSpeed) // errors only on an invalid level
	}
	packer.Reset(&buf)
	// Writes to a bytes.Buffer cannot fail.
	packer.Write(payload)
	packer.Close()
	packMu.Unlock()
	return &core.StoredObject{
		SourceHash: sourceHash,
		Sum:        crc64.Checksum(buf.Bytes(), crcTable),
		Packed:     buf.Bytes(),
	}
}

// UnpackObject verifies a stored object's checksum and inflates it back to
// the encoded object. Any damage is an error; the caller must then compile
// the unit instead.
func UnpackObject(o *core.StoredObject) ([]byte, error) {
	if crc64.Checksum(o.Packed, crcTable) != o.Sum {
		return nil, fmt.Errorf("state: object checksum mismatch")
	}
	r := flateReader.Get().(io.ReadCloser)
	defer flateReader.Put(r)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(o.Packed), nil); err != nil {
		return nil, fmt.Errorf("state: object: %w", err)
	}
	var out bytes.Buffer
	out.Grow(3 * len(o.Packed)) // objects compress about 2.6:1
	n, err := out.ReadFrom(io.LimitReader(r, maxObjectBytes+1))
	if err != nil {
		return nil, fmt.Errorf("state: object: %w", err)
	}
	if n > maxObjectBytes {
		return nil, fmt.Errorf("state: object inflates past %d bytes", maxObjectBytes)
	}
	return out.Bytes(), nil
}

// sizedRecordBlock writes a u32 byte-length prefix followed by the record
// block, staging it in scratch to measure it.
func (e *encoder) sizedRecordBlock(scratch *bytes.Buffer, slots []core.Record, seen []bool) {
	if e.err != nil {
		return
	}
	scratch.Reset()
	sub := &encoder{w: scratch}
	sub.recordBlock(slots, seen)
	if sub.err != nil {
		e.err = sub.err
		return
	}
	e.u32(uint32(scratch.Len()))
	e.bytes(scratch.Bytes())
}

// quarantineBlock writes the optional quarantine marker.
func (e *encoder) quarantineBlock(q *core.Quarantine) {
	if q == nil {
		e.bytes([]byte{0})
		return
	}
	e.bytes([]byte{1})
	e.str(q.Reason)
	e.uv(uint64(q.Clean))
	e.uv(uint64(len(q.Passes)))
	for _, p := range q.Passes {
		e.str(p)
	}
}

// recordBlock writes slot records with the distinct-hash table compression.
// Only seen dormant records carry a hash and cost.
func (e *encoder) recordBlock(slots []core.Record, seen []bool) {
	e.uv(uint64(len(slots)))
	var hashes []uint64
	idx := make(map[uint64]int)
	for i, r := range slots {
		if !seen[i] || r.Changed {
			continue
		}
		if _, ok := idx[r.InputHash]; !ok {
			idx[r.InputHash] = len(hashes)
			hashes = append(hashes, r.InputHash)
		}
	}
	e.uv(uint64(len(hashes)))
	for _, h := range hashes {
		e.u64(h)
	}
	for i, r := range slots {
		var flags byte
		if r.Changed {
			flags |= 1
		}
		if seen[i] {
			flags |= 2
		}
		e.bytes([]byte{flags})
		if seen[i] && !r.Changed {
			e.uv(uint64(idx[r.InputHash]))
			e.uv(uint64(r.CostNS) >> 8)
		}
	}
}

// Decode parses the binary format. The reader is drained into one buffer
// and handed to DecodeBytes.
func Decode(r io.Reader) (*core.UnitState, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	return DecodeBytes(buf)
}

// DecodeBytes parses a state file held in memory, zero-copy: all strings
// in the returned state, and its packed object, are views into buf, so the
// caller must not mutate buf for the lifetime of the state. A cursor walks
// buf; record blocks are located via their length prefixes, and every
// declared length is checked against the bytes actually present before
// use, so no count in the file can force an allocation or an out-of-range
// slice.
func DecodeBytes(buf []byte) (*core.UnitState, error) {
	if len(buf) < 12 {
		return nil, fmt.Errorf("state: %w", io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(buf[:8], magic[:]) {
		return nil, fmt.Errorf("state: bad magic")
	}
	v := binary.LittleEndian.Uint32(buf[8:12])
	if v < minFormatVersion || v > FormatVersion {
		return nil, fmt.Errorf("state: unsupported version %d", v)
	}
	d := &bdec{buf: buf, off: 12} // past magic + version
	st := &core.UnitState{Funcs: make(map[string]*core.FuncState)}
	st.PipelineHash = d.u64()
	st.Unit = d.str()

	st.Quarantine = d.quarantineBlock()
	st.ModuleSlots, st.ModuleSeen = d.sizedRecordBlock()

	nFuncs := d.u32()
	if d.err == nil && uint64(nFuncs) > uint64(len(buf)) {
		// Each function costs at least one byte; anything larger is a lie.
		d.err = fmt.Errorf("implausible function count %d", nFuncs)
	}
	for i := uint32(0); i < nFuncs && d.err == nil; i++ {
		name := d.str()
		slots, seen := d.sizedRecordBlock()
		if d.err != nil {
			break
		}
		st.Funcs[name] = &core.FuncState{Slots: slots, Seen: seen}
	}
	if v >= 6 && d.err == nil {
		st.Footprint = d.footprintBlock()
	}
	if v >= 7 && d.err == nil {
		st.Object = d.objectBlock()
	}
	if d.err == nil && d.off != len(buf) {
		d.err = fmt.Errorf("%d trailing bytes", len(buf)-d.off)
	}
	if d.err != nil {
		return nil, fmt.Errorf("state: %w", d.err)
	}
	return st, nil
}

// bdec is the decoder's offset cursor over the file buffer: zero-copy
// strings and length-prefixed block slicing.
type bdec struct {
	buf []byte
	off int
	err error
}

func (d *bdec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *bdec) u32() uint32 {
	b := d.take(4)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *bdec) u64() uint64 {
	b := d.take(8)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *bdec) byte() byte {
	b := d.take(1)
	if d.err != nil {
		return 0
	}
	return b[0]
}

func (d *bdec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	d.off += n
	return v
}

// str returns a string aliasing the buffer — the zero-copy read. Length
// is validated against the remaining bytes, so no allocation ever happens
// here regardless of what the file declares.
func (d *bdec) str() string {
	n := d.u32()
	b := d.take(int(n))
	if d.err != nil || n == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// sizedRecordBlock slices a length-prefixed record block out of the
// buffer and parses it. The parse must consume the block exactly — a
// mismatch means a corrupt or non-canonical file.
func (d *bdec) sizedRecordBlock() ([]core.Record, []bool) {
	n := d.u32()
	b := d.take(int(n))
	if d.err != nil {
		return nil, nil
	}
	sub := &bdec{buf: b}
	slots, seen := sub.recordBlock()
	if sub.err != nil {
		d.err = sub.err
		return nil, nil
	}
	if sub.off != len(b) {
		d.err = fmt.Errorf("record block length %d does not match content (%d parsed)", n, sub.off)
		return nil, nil
	}
	return slots, seen
}

func (d *bdec) quarantineBlock() *core.Quarantine {
	fb := d.byte()
	if d.err != nil || fb == 0 {
		return nil
	}
	if fb != 1 {
		d.err = fmt.Errorf("bad quarantine marker %d", fb)
		return nil
	}
	q := &core.Quarantine{Reason: d.str()}
	q.Clean = int(d.uv())
	n := d.uv()
	if d.err == nil && n > 1<<12 {
		d.err = fmt.Errorf("implausible quarantined-pass count %d", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		q.Passes = append(q.Passes, d.str())
	}
	if d.err != nil {
		return nil
	}
	return q
}

func (d *bdec) recordBlock() ([]core.Record, []bool) {
	n := d.uv()
	if d.err == nil && n > 1<<16 {
		d.err = fmt.Errorf("implausible slot count %d", n)
	}
	if d.err != nil {
		return nil, nil
	}
	nHashes := d.uv()
	if d.err == nil && nHashes > n {
		d.err = fmt.Errorf("hash table larger than slot count")
	}
	// With the whole block in hand the declared counts are validated
	// against the bytes present before anything is allocated: exact-size
	// slices, no growth heuristics needed.
	rem := uint64(len(d.buf) - d.off)
	if d.err == nil && nHashes*8 > rem {
		d.err = io.ErrUnexpectedEOF
	}
	if d.err == nil && n > rem-nHashes*8 {
		// Each slot costs at least its flags byte.
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return nil, nil
	}
	hashes := make([]uint64, nHashes)
	for i := range hashes {
		hashes[i] = d.u64()
	}
	if d.err != nil {
		return nil, nil
	}
	slots := make([]core.Record, 0, n)
	seen := make([]bool, 0, n)
	for i := uint64(0); i < n; i++ {
		fb := d.byte()
		if d.err != nil {
			return nil, nil
		}
		var r core.Record
		r.Changed = fb&1 != 0
		sn := fb&2 != 0
		if sn && !r.Changed {
			hi := d.uv()
			if d.err == nil && hi >= uint64(len(hashes)) {
				d.err = fmt.Errorf("hash index out of range")
			}
			if d.err != nil {
				return nil, nil
			}
			r.InputHash = hashes[hi]
			r.CostNS = int64(d.uv()) << 8
			if d.err != nil {
				return nil, nil
			}
		}
		slots = append(slots, r)
		seen = append(seen, sn)
	}
	return slots, seen
}

// FileSize reports the serialized size of a state value, used by the
// state-overhead experiments.
func FileSize(st *core.UnitState) (int, error) {
	var c countWriter
	if err := Encode(&c, st); err != nil {
		return 0, err
	}
	return c.n, nil
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// --- low-level encoding -------------------------------------------------------

type encoder struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (e *encoder) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.bytes(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.bytes(e.buf[:8])
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.bytes([]byte(s))
}

func (e *encoder) uv(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	e.bytes(buf[:n])
}
