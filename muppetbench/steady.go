package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// specPath is the benchmark spec, at the root of the checkout the
// report runs from.
const specPath = "BENCHMARK.json"

// benchmarkSpec is the part of BENCHMARK.json the steadiness report
// reads: each end-to-end metric's bound and direction, and the run length.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain is the steadiness report: it runs one workload k times, each
// with the next seed, as child processes of this binary, and prints each
// end-to-end metric's median and quartiles (computed like Python's
// statistics.quantiles(n=4)), flagging any whose quartile spread, as a
// share of the median, exceeds its bound in BENCHMARK.json ("OVER"), or a
// third of it ("tight"). With --sets 2 it runs the same seeds again and
// flags any metric whose second median is worse than the first by more
// than its bound: the two-set check a change is accepted by.
func steadyMain(args []string) int {
	fl := flag.NewFlagSet("muppetbench steady", flag.ContinueOnError)
	wl := fl.String("workload", "", "workload to run")
	runs := fl.Int("runs", 10, "runs per set, one seed each")
	seed0 := fl.Int64("seed0", 1, "seed of the first run")
	sets := fl.Int("sets", 1, "sets of runs over the same seeds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var spec benchmarkSpec
	data, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "muppetbench steady:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "muppetbench steady:", err)
		return 2
	}
	var medians []map[string]float64
	for set := 1; set <= *sets; set++ {
		values := map[string][]float64{}
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			res, err := runChild(self, *wl, seed, spec.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "muppetbench steady: seed %d: %v\n", seed, err)
				return 1
			}
			var line []string
			for _, m := range spec.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				line = append(line, fmt.Sprintf("%s=%.4g", m.Name, v))
			}
			fmt.Printf("set %d seed %d: attempted=%d failed=%d %s\n", set, seed, res.Attempted, res.Failed, strings.Join(line, " "))
		}
		fmt.Printf("set %d\n%-16s %-6s %12s %12s %12s %8s %6s  %s\n", set, "metric", "unit", "median", "q1", "q3", "spread", "bound", "flag")
		med := map[string]float64{}
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			med[m.Name] = q2
			spread := (q3 - q1) / q2
			fmt.Printf("%-16s %-6s %12.4f %12.4f %12.4f %8.4f %6.3f  %s\n", m.Name, m.Unit, q2, q1, q3, spread, m.Bound, flagFor(spread, m.Bound))
		}
		medians = append(medians, med)
	}
	for set := 2; set <= *sets; set++ {
		fmt.Printf("set %d against set 1: worsening of the median (negative: better)\n", set)
		for _, m := range spec.EndToEnd {
			worse := medians[set-1][m.Name]/medians[0][m.Name] - 1
			if m.Better == "higher" {
				worse = -worse
			}
			fmt.Printf("%-16s %-6s %12.4f %12.4f %8.4f %6.3f  %s\n", m.Name, m.Unit, medians[0][m.Name], medians[set-1][m.Name], worse, m.Bound, flagFor(worse, m.Bound))
		}
	}
	return 0
}

// flagFor marks a spread or a worsening against its bound.
func flagFor(x, bound float64) string {
	switch {
	case x > bound:
		return "OVER"
	case x > bound/3:
		return "tight"
	}
	return "ok"
}

// runChild runs one benchmark run and parses the result object from the
// last line of its output.
func runChild(self, wl string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out.String())
	}
	last := ""
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parse result %q: %w", last, err)
	}
	return &res, nil
}
