package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opResult is the outcome of one timed op: its latency (as the workload
// defines it), its kind for per-kind breakdowns, and whether it failed.
// A failure is a transport error, a non-200 status, an indeterminate
// result, a wrong verdict code, or output bytes that differ from the
// reference.
type opResult struct {
	latency time.Duration
	kind    string
	err     error
}

// instance is one set-up workload, ready to serve timed ops. do runs
// client c's i-th op of its fixed seeded sequence; tr is nil outside the
// traced window. Each client's sequence is made of blocks that each hold
// the workload's op mix exactly; windows start and end on block
// boundaries, so every window measures the same mix.
type instance interface {
	clients() int
	block() int
	do(c, i int, tr *tracer, opID int64) opResult
	close()
}

// windowStarter is implemented by instances that read server-side
// counters at the boundaries of each timed window.
type windowStarter interface {
	startWindow()
}

// slice is one stretch of a window between block completions: at least
// minSlice long and made of whole blocks, so each slice runs (nearly)
// the exact op mix. Medians over slices resist bursts of load from
// outside the process that a whole-window mean would absorb.
type slice struct {
	seconds float64
	ops     int
	cpuSec  float64
	allocB  float64
}

// minSlice is the shortest slice; with blocks longer than this, every
// block is a slice.
const minSlice = 2 * time.Second

// minWindowOps is the fewest ops a timed window holds, so that p90 has
// at least ten samples beyond it even when the machine runs slow.
const minWindowOps = 100

// window is what one timed window measured.
type window struct {
	seconds  float64
	slices   []slice
	results  []opResult
	cpuSec   float64
	allocB   float64
	gcCycles float64
	gcCPUSec float64
	failures []string // the first few failure messages
}

func (w *window) attempted() int { return len(w.results) }

func (w *window) failed() int {
	n := 0
	for _, r := range w.results {
		if r.err != nil {
			n++
		}
	}
	return n
}

// latenciesMS returns the sorted latencies of the successful ops of the
// given kind ("" = all kinds).
func (w *window) latenciesMS(kind string) []float64 {
	var out []float64
	for _, r := range w.results {
		if r.err == nil && (kind == "" || r.kind == kind) {
			out = append(out, float64(r.latency.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// runtimeSample reads the process-wide counters a window is bracketed by.
type runtimeSample struct {
	cpuSec   float64
	allocB   float64
	gcCycles float64
	gcCPUSec float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeSample{
		cpuSec:   tv(ru.Utime) + tv(ru.Stime),
		allocB:   val(samples[0]),
		gcCycles: val(samples[1]),
		gcCPUSec: val(samples[2]),
	}
}

// measure runs every client's closed loop for at least d and
// minWindowOps ops, until the end of the block each client is in: each
// client sends its next op only
// after the previous one completed. The window opens after a forced
// collection, so garbage from set-up is not charged to it. startOp is the
// per-client sequence position the window starts at (a block boundary);
// the returned positions continue from there. maxOps, when positive, ends
// each client's loop after that many ops instead (smoke runs).
func measure(inst instance, d time.Duration, maxOps int, tr *tracer, startOp []int) (*window, []int) {
	runtime.GC()
	if ws, ok := inst.(windowStarter); ok {
		ws.startWindow()
	}
	n := inst.clients()
	perClient := make([][]opResult, n)
	next := append([]int(nil), startOp...)
	before := sampleRuntime()
	start := time.Now()
	deadline := start.Add(d)
	var (
		mu         sync.Mutex
		slices     []slice
		sliceStart = start
		sliceRT    = before
		sliceOps   int
	)
	// blockDone closes the current slice at a block completion once it
	// is long enough.
	blockDone := func(ops int) {
		mu.Lock()
		defer mu.Unlock()
		sliceOps += ops
		now := time.Now()
		if now.Sub(sliceStart) < minSlice {
			return
		}
		rt := sampleRuntime()
		slices = append(slices, slice{
			seconds: now.Sub(sliceStart).Seconds(), ops: sliceOps,
			cpuSec: rt.cpuSec - sliceRT.cpuSec, allocB: rt.allocB - sliceRT.allocB,
		})
		sliceStart, sliceRT, sliceOps = now, rt, 0
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			block := inst.block()
			minOps := (minWindowOps + n - 1) / n
			more := func(i int) bool {
				done := i - startOp[c]
				if maxOps > 0 {
					return done < maxOps
				}
				return time.Now().Before(deadline) || done < minOps || done%block != 0
			}
			for i := next[c]; more(i); i++ {
				opID := int64(c)<<32 | int64(i)
				perClient[c] = append(perClient[c], inst.do(c, i, tr, opID))
				next[c] = i + 1
				if (i+1-startOp[c])%block == 0 {
					blockDone(block)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := sampleRuntime()
	w := &window{
		seconds:  elapsed.Seconds(),
		slices:   slices,
		cpuSec:   after.cpuSec - before.cpuSec,
		allocB:   after.allocB - before.allocB,
		gcCycles: after.gcCycles - before.gcCycles,
		gcCPUSec: after.gcCPUSec - before.gcCPUSec,
	}
	for _, rs := range perClient {
		for _, r := range rs {
			w.results = append(w.results, r)
			if r.err != nil && len(w.failures) < 5 {
				w.failures = append(w.failures, r.err.Error())
			}
		}
	}
	return w, next
}

// warmUp runs ops untimed, n per client, and returns where each client's
// sequence continues. Failures here are failures of the run.
func warmUp(inst instance, n int) ([]int, error) {
	next := make([]int, inst.clients())
	errs := make([]error, inst.clients())
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if r := inst.do(c, i, nil, 0); r.err != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("warm-up op %d of client %d: %w", i, c, r.err)
				}
			}
			next[c] = n
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return next, nil
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so the steadiness report agrees with the
// acceptance check computed the same way.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// resetPeakRSS restarts the resident-set high-water mark, so the peak
// covers set-up and the timed windows but not input generation and
// reference computation. Kernels without the reset leave the mark
// alone; the peak then covers the whole process.
func resetPeakRSS() {
	// Best effort by design: see above.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

const mib = 1 << 20

// endToEnd derives the end-to-end metrics of one window: latency
// quantiles over every op, and the run-mean metrics as medians over the
// window's slices (whole-window means when it has fewer than three).
func endToEnd(w *window, setupS float64, rssMiB float64) map[string]float64 {
	ops := float64(w.attempted())
	lat := w.latenciesMS("")
	rate, cpu, alloc := []float64{ops / w.seconds}, []float64{w.cpuSec / ops}, []float64{w.allocB / ops}
	if len(w.slices) >= 3 {
		rate, cpu, alloc = nil, nil, nil
		for _, s := range w.slices {
			n := float64(s.ops)
			rate = append(rate, n/s.seconds)
			cpu = append(cpu, s.cpuSec/n)
			alloc = append(alloc, s.allocB/n)
		}
	}
	return map[string]float64{
		"setup_s":         setupS,
		"p50_ms":          quantile(lat, 0.5),
		"p90_ms":          quantile(lat, 0.9),
		"ops_per_s":       median(rate),
		"cpu_ms_per_op":   median(cpu) * 1000,
		"alloc_mb_per_op": median(alloc) / mib,
		"peak_rss_mb":     rssMiB,
		"error_frac":      float64(w.failed()) / ops,
	}
}
