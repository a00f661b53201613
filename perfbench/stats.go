package main

import (
	"bytes"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// bootstrapMedian returns a 95% percentile-bootstrap interval for the
// median of xs, resampled with a fixed-seed generator.
func bootstrapMedian(xs []float64, seed int64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	const rounds = 2000
	meds := make([]float64, rounds)
	sample := make([]float64, len(xs))
	for r := range meds {
		for i := range sample {
			sample[i] = xs[rng.Intn(len(xs))]
		}
		meds[r] = median(sample)
	}
	return quantile(meds, 0.025), quantile(meds, 0.975)
}

// cpuNow is the process's user+sys CPU time so far, summed over its
// threads (getrusage). On a virtual machine whose kernel accounts steal
// time, it leaves out the time the host ran something else on our
// virtual CPUs, which wall time includes.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ioNow is rchar+wchar, the bytes the process has read and written by
// syscalls (/proc/self/io).
func ioNow() int64 {
	return procField("/proc/self/io", "rchar:") + procField("/proc/self/io", "wchar:")
}

// samples are builds' times in ms: on-CPU time, which the metrics use,
// and wall time, printed for reference.
type samples struct{ cpu, wall []float64 }

func (s *samples) add(o outcome) {
	s.cpu = append(s.cpu, o.cpu)
	s.wall = append(s.wall, o.ms)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	return float64(procField("/proc/self/status", "VmHWM:")) / 1024
}

// procField reads one "name: value" line of a /proc file (0 if absent).
func procField(path, name string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(name)); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(string(f[0]), 10, 64)
				return n
			}
		}
	}
	return 0
}

// dirStats returns the bytes and regular files under dir.
func dirStats(dir string) (size int64, files int) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			size += info.Size()
			files++
		}
		return nil
	})
	return size, files
}
