package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a muppet layer, made by the benchmark
// through a public entry point. Times are nanoseconds since the tracer
// started; Parent is -1 for an op's root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory for the traced window; they are written
// out once, when the run ends. A nil *tracer records nothing, which is
// how the untraced windows run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus the time covered by child spans
}

// stats derives each span name's count, total and self time. A span's
// self time is its duration minus its children's: the benchmark's spans
// nest strictly (children run inside their parent on the same goroutine,
// one after another), so their durations never overlap.
func (t *tracer) stats() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			out[s.Name] = st
		}
		d := s.End - s.Start
		self := d - child[i]
		if self < 0 {
			self = 0
		}
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(self) / 1e6
	}
	return out
}

// durationsMS returns the sorted durations of the spans named name.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// traceDump is the file a traced run writes when it ends.
type traceDump struct {
	Stamp    stamp              `json:"stamp"`
	Workload string             `json:"workload"`
	Layers   map[string]float64 `json:"layers"`
	Notes    map[string]string  `json:"notes"`
	Spans    []span             `json:"spans"`
	SelfTime []*spanStat        `json:"self_time"`
}

func (t *tracer) dump(path string, d traceDump) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	for _, st := range t.stats() {
		d.SelfTime = append(d.SelfTime, st)
	}
	sort.Slice(d.SelfTime, func(i, j int) bool { return d.SelfTime[i].Name < d.SelfTime[j].Name })
	t.mu.Lock()
	d.Spans = t.spans
	data, err := json.Marshal(d)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
