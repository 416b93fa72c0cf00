// Command muppetbench is muppet's benchmark: three workloads (cold, serve,
// revise) driven through muppet's public entry points, every answer
// checked against a cold reference, end-to-end metrics from untraced
// windows and a per-layer table from a separate traced window. See
// README.md for the workloads, the metrics and how to run it.
//
//	muppetbench --workload cold --seed 1 --seconds 15 --trace 0
//	muppetbench steady --workload serve --runs 5 --sets 2
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// prepared is a workload whose inputs are written and whose references
// are computed: everything that is not charged to the run.
type prepared interface {
	// setup builds what a user pays for once per process; it is timed
	// as setup_s.
	setup() (instance, error)
	// layers derives the per-layer table of a traced window.
	layers(ctx context.Context, inst instance, tw *window, tr *tracer) (*layers, error)
}

type workload struct {
	name string
	// warmUpBlocks is the number of untimed op-mix blocks each client
	// runs between set-up and the first timed window. cold has none: its
	// set-up already runs one untimed op of each kind.
	warmUpBlocks int
	prepare      func(ctx context.Context, seed int64, dir string) (prepared, error)
}

var workloads = []workload{
	{name: "cold", warmUpBlocks: 0, prepare: prepareCold},
	{name: "serve", warmUpBlocks: 1, prepare: prepareServe},
	{name: "revise", warmUpBlocks: 1, prepare: prepareRevise},
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// e2eMetric is one end-to-end metric with its unit.
type e2eMetric struct{ name, unit string }

// e2eMetrics are reported by the untraced run. error_frac is printed but
// not part of the result object: it is 0 on every passing run, and the
// result's attempted/failed counts carry it.
var e2eMetrics = []e2eMetric{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MiB"},
	{"peak_rss_mb", "MiB"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	// maxOps, when positive, ends each timed window after that many ops
	// per client instead of after seconds (test smoke runs).
	maxOps int
	// setups overrides setupRuns (test smoke runs).
	setups int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp identifies where and on what a run was made.
type stamp struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func newStamp(seed int64) stamp {
	return stamp{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: seed, Commit: commit(),
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d seed=%d commit=%s",
		s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.Seed, s.Commit)
}

// commit is the VCS revision the binary was built from, or — in a
// checkout without version control — a digest of the Go sources and
// module files under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	var o options
	fl := flag.NewFlagSet("muppetbench", flag.ContinueOnError)
	fl.StringVar(&o.workload, "workload", "", "workload: cold, serve or revise")
	fl.Int64Var(&o.seed, "seed", 1, "input seed")
	fl.IntVar(&o.seconds, "seconds", 15, "length of each timed window")
	fl.IntVar(&o.trace, "trace", 0, "1: also run a traced window and report per-layer metrics")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "muppetbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muppetbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "muppetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// run executes one benchmark run and returns its result object; the
// human-readable report goes to out.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	st := newStamp(o.seed)
	fmt.Fprintf(out, "# muppetbench workload=%s seconds=%d trace=%d\n# %s\n", w.name, o.seconds, o.trace, st)

	dir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-seed%d-pid%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	p, err := w.prepare(ctx, o.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	fmt.Fprintf(out, "# inputs written and references checked in %.2f s (not charged)\n", time.Since(t0).Seconds())

	setups := o.setups
	if setups <= 0 {
		setups = setupRuns
	}
	var inst instance
	var setupTimes []float64
	runtime.GC()
	resetPeakRSS()
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		if inst, err = p.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(out, "# setup_s runs: %s\n", floats(setupTimes))

	next, err := warmUp(inst, w.warmUpBlocks*inst.block())
	if err != nil {
		return nil, err
	}
	win, next := measureFor(inst, o, nil, next)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(win, median(setupTimes), rss)
	report(out, "untraced", win, e2e)

	res := &result{
		Correct: win.failed() == 0, Attempted: win.attempted(), Failed: win.failed(),
		Metrics: map[string]metricValue{},
	}
	if o.trace == 0 {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metricValue{Value: finite(e2e[m.name]), Unit: m.unit}
		}
		return res, nil
	}

	tr := newTracer()
	tw, _ := measureFor(inst, o, tr, next)
	traced := endToEnd(tw, median(setupTimes), rss)
	report(out, "traced", tw, traced)
	res.Attempted += tw.attempted()
	res.Failed += tw.failed()
	res.Correct = res.Failed == 0
	l, err := p.layers(ctx, inst, tw, tr)
	if err != nil {
		return nil, fmt.Errorf("per-layer: %w", err)
	}
	ops := float64(win.attempted())
	l.set("runtime.gc_cycles_per_op", win.gcCycles/ops, "runtime/metrics over the untraced window")
	l.set("runtime.gc_cpu_frac", win.gcCPUSec/win.cpuSec, "GC CPU estimate over process CPU, untraced window")
	l.set("trace.overhead_p50_frac", traced["p50_ms"]/e2e["p50_ms"]-1, "traced p50 over untraced p50, minus 1")
	l.set("trace.overhead_cpu_frac", traced["cpu_ms_per_op"]/e2e["cpu_ms_per_op"]-1, "traced CPU per op over untraced, minus 1")
	l.set("trace.spans_per_op", float64(len(tr.spans))/float64(tw.attempted()), "spans recorded per traced op")
	reportLayers(out, l)
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := tr.dump(path, traceDump{Stamp: st, Workload: w.name, Layers: l.values, Notes: l.notes}); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# span dump: %s\n", path)
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metricValue{Value: l.values[m.name], Unit: m.unit}
	}
	return res, nil
}

// measureFor runs one timed window: o.seconds long, or o.maxOps ops per
// client for smoke runs.
func measureFor(inst instance, o options, tr *tracer, next []int) (*window, []int) {
	if o.maxOps <= 0 {
		return measure(inst, time.Duration(o.seconds)*time.Second, 0, tr, next)
	}
	return measure(inst, time.Hour, o.maxOps, tr, next)
}

func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// report prints one window's end-to-end metrics and per-kind latencies.
func report(out io.Writer, label string, w *window, e2e map[string]float64) {
	lat := w.latenciesMS("")
	beyond := len(lat) - int(math.Ceil(0.9*float64(len(lat))))
	fmt.Fprintf(out, "# %s window: %.2f s in %d slices, %d ops attempted, %d failed, %d samples beyond p90\n",
		label, w.seconds, len(w.slices), w.attempted(), w.failed(), beyond)
	for _, m := range e2eMetrics {
		fmt.Fprintf(out, "%-8s %-16s %14.4f %s\n", label, m.name, e2e[m.name], m.unit)
	}
	fmt.Fprintf(out, "%-8s %-16s %14.4f %s\n", label, "error_frac", e2e["error_frac"], "fraction")
	kinds := map[string]bool{}
	for _, r := range w.results {
		kinds[r.kind] = true
	}
	var names []string
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		l := w.latenciesMS(k)
		fmt.Fprintf(out, "# %s kind %-16s n=%-6d p50=%9.3f ms p90=%9.3f ms\n", label, k, len(l), quantile(l, 0.5), quantile(l, 0.9))
	}
	for _, f := range w.failures {
		fmt.Fprintf(out, "# %s FAILURE: %s\n", label, f)
	}
}

func reportLayers(out io.Writer, l *layers) {
	fmt.Fprintf(out, "# per-layer table (metric, value, unit, should move, how measured)\n")
	for _, m := range layerMetrics {
		fmt.Fprintf(out, "layer %-30s %14.4f %-8s | %-36s | %s\n", m.name, l.values[m.name], m.unit, m.moves, l.notes[m.name])
	}
}
