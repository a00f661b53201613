package main

// Tracing from outside the program. The traced run times each layer
// without instrumenting it: spans are taken around the three calls the
// benchmark makes (project.LoadDir, buildsys.NewBuilder,
// Builder.BuildContext), around every filesystem call through a
// benchmark-owned vfs.FS passed as Options.FS, and around every
// shared-cache call through a benchmark-owned cas.Store passed as
// Options.CAS. The compile phase, the link and each unit's compile are
// placed from the Report the API already returns.

import (
	"bufio"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"statefulcc/internal/cas"
	"statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/vfs"
)

// span is one timed interval of a recorded build. Times are nanoseconds
// since the recorder's epoch; Parent indexes the recorder's span list (-1
// for a build's root span).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Build   int    `json:"build"`
	Read    int64  `json:"read_bytes,omitempty"`
	Written int64  `json:"written_bytes,omitempty"`
}

// recorder keeps spans in memory until the run ends. Only one build is
// recorded at a time; build is -1 while nothing is recorded, which turns
// the wrappers into plain pass-throughs.
type recorder struct {
	epoch  time.Time
	build  atomic.Int64
	parent atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.build.Store(-1)
	return r
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// on reports whether a build is being recorded (false on a nil recorder).
func (r *recorder) on() bool { return r != nil && r.build.Load() >= 0 }

// add appends a finished span of the recorded build and returns its index.
func (r *recorder) add(s span) int {
	s.Build = int(r.build.Load())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// open starts a benchmark-side span and makes it the parent of the
// wrapper spans that follow; close ends it. Both are no-ops (index -1)
// when nothing is recorded.
func (r *recorder) open(name string, parent int) int {
	if !r.on() {
		return -1
	}
	i := r.add(span{Name: name, Start: r.now(), End: -1, Parent: parent})
	r.parent.Store(int64(i))
	return i
}

func (r *recorder) close(i int) {
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = time.Since(r.epoch).Nanoseconds()
	r.parent.Store(int64(r.spans[i].Parent))
}

// wrapped records one wrapper-side span under the current parent.
func (r *recorder) wrapped(name string, start int64, read, written int64) {
	r.add(span{Name: name, Start: start, End: r.now(), Parent: int(r.parent.Load()),
		Read: read, Written: written})
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceFS times every filesystem call the state and history layers make.
// A file handle is one span from open to close, so a state load covers
// its decode and a state save its encode; fsyncs are spans of their own
// inside the handle's.
type traceFS struct {
	inner vfs.FS
	rec   *recorder
}

// layerOf names the layer a path belongs to: the flight recorder's file
// and its rotation temps are history, everything else the builder touches
// through its FS is per-unit state.
func layerOf(path string) string {
	base := filepath.Base(path)
	if base == history.FileName {
		return "history"
	}
	if ok, _ := filepath.Match(history.TempPattern, base); ok {
		return "history"
	}
	return "state"
}

func (t traceFS) handle(layer, op string, open func() (vfs.File, error)) (vfs.File, error) {
	if !t.rec.on() {
		return open()
	}
	start := t.rec.now()
	f, err := open()
	if err != nil {
		t.rec.wrapped(layer+"."+op, start, 0, 0)
		return nil, err
	}
	return &traceFile{File: f, rec: t.rec, name: layer + "." + op, layer: layer, start: start}, nil
}

func (t traceFS) meta(path string, call func() error) error {
	if !t.rec.on() {
		return call()
	}
	start := t.rec.now()
	err := call()
	t.rec.wrapped(layerOf(path)+".meta", start, 0, 0)
	return err
}

func (t traceFS) Open(name string) (vfs.File, error) {
	return t.handle(layerOf(name), "load", func() (vfs.File, error) { return t.inner.Open(name) })
}

func (t traceFS) Create(name string) (vfs.File, error) {
	return t.handle(layerOf(name), "write", func() (vfs.File, error) { return t.inner.Create(name) })
}

func (t traceFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return t.handle(layerOf(name), "write", func() (vfs.File, error) { return t.inner.OpenFile(name, flag, perm) })
}

func (t traceFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return t.handle(layerOf(pattern), "write", func() (vfs.File, error) { return t.inner.CreateTemp(dir, pattern) })
}

func (t traceFS) Rename(oldpath, newpath string) error {
	if !t.rec.on() {
		return t.inner.Rename(oldpath, newpath)
	}
	start := t.rec.now()
	err := t.inner.Rename(oldpath, newpath)
	t.rec.wrapped(layerOf(newpath)+".rename", start, 0, 0)
	return err
}

func (t traceFS) Remove(name string) error {
	return t.meta(name, func() error { return t.inner.Remove(name) })
}

func (t traceFS) MkdirAll(path string, perm fs.FileMode) error {
	return t.meta(path, func() error { return t.inner.MkdirAll(path, perm) })
}

func (t traceFS) ReadDir(name string) ([]fs.DirEntry, error) {
	var out []fs.DirEntry
	err := t.meta(name, func() (err error) { out, err = t.inner.ReadDir(name); return err })
	return out, err
}

func (t traceFS) Stat(name string) (fs.FileInfo, error) {
	var out fs.FileInfo
	err := t.meta(name, func() (err error) { out, err = t.inner.Stat(name); return err })
	return out, err
}

// traceFile counts a handle's bytes and records its lifetime on Close.
// A handle is used by one goroutine at a time, so the counts need no
// synchronization.
type traceFile struct {
	vfs.File
	rec           *recorder
	name, layer   string
	start         int64
	read, written int64
}

func (f *traceFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.read += int64(n)
	return n, err
}

func (f *traceFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *traceFile) Sync() error {
	start := f.rec.now()
	err := f.File.Sync()
	f.rec.wrapped(f.layer+".fsync", start, 0, 0)
	return err
}

func (f *traceFile) Close() error {
	err := f.File.Close()
	f.rec.wrapped(f.name, f.start, f.read, f.written)
	return err
}

// traceStore times every shared-cache call. It wraps the concrete HTTP
// client so that it forwards exactly what the client offers: the builder
// type-asserts cas.Leaser (request coalescing) and SetMetrics (wire
// counters), and a wrapper hiding either would measure another program.
type traceStore struct {
	inner *cas.HTTPCAS
	rec   *recorder
}

func (t traceStore) timed(name string, call func() (read, written int64)) {
	if !t.rec.on() {
		call()
		return
	}
	start := t.rec.now()
	read, written := call()
	t.rec.wrapped(name, start, read, written)
}

func (t traceStore) Get(key cas.Key) (data []byte, err error) {
	t.timed("cas.fetch", func() (int64, int64) { data, err = t.inner.Get(key); return int64(len(data)), 0 })
	return data, err
}

func (t traceStore) Put(key cas.Key, data []byte) (err error) {
	t.timed("cas.put", func() (int64, int64) { err = t.inner.Put(key, data); return 0, int64(len(data)) })
	return err
}

func (t traceStore) Has(key cas.Key) (ok bool, err error) {
	t.timed("cas.fetch", func() (int64, int64) { ok, err = t.inner.Has(key); return 0, 0 })
	return ok, err
}

func (t traceStore) Delete(key cas.Key) error { return t.inner.Delete(key) }

func (t traceStore) ActionGet(action cas.Key) (blob cas.Key, err error) {
	t.timed("cas.fetch", func() (int64, int64) { blob, err = t.inner.ActionGet(action); return 0, 0 })
	return blob, err
}

func (t traceStore) ActionPut(action, blob cas.Key) (err error) {
	t.timed("cas.put", func() (int64, int64) { err = t.inner.ActionPut(action, blob); return 0, 0 })
	return err
}

func (t traceStore) Lease(ctx context.Context, action cas.Key) (res cas.LeaseResult, err error) {
	t.timed("cas.lease", func() (int64, int64) { res, err = t.inner.Lease(ctx, action); return 0, 0 })
	return res, err
}

func (t traceStore) Abandon(action cas.Key) (err error) {
	t.timed("cas.lease", func() (int64, int64) { err = t.inner.Abandon(action); return 0, 0 })
	return err
}

func (t traceStore) SetMetrics(reg *obs.Registry) { t.inner.SetMetrics(reg) }
