// Command perfbench is the repository's benchmark. It runs one named
// workload through the program's public entry points — service.Execute
// for the batch workloads, a service.Manager behind service.Handler on a
// loopback listener for the daemon workload — checks every output, and
// prints the metrics by name with their units.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload noc-sim|map-solve|jobs-mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 a traced run carries the per-layer metrics:
// spans around every call into the program, obs counter deltas, a CPU
// profile split by package, and a probe phase that times each layer's
// public functions directly. The line before it is the full record: host
// stamp, sample counts, deterministic counts and any correctness
// problems. Records and spans are also written under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outDir holds the records and spans a run writes and tmpDir its
// scratch files, relative to the repository root.
const (
	outDir = ".bench_build/perfbench"
	tmpDir = ".bench_build/tmp"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// value is one measurement and the number of samples behind it.
type value struct {
	v float64
	n int
}

// run accumulates one benchmark run's results.
type run struct {
	cfg       config
	tr        *tracer // nil unless --trace 1
	values    map[string]value
	counts    map[string]map[string]uint64 // request seed → per-pass counts that must repeat exactly
	attempted int
	failed    int
	problems  []string
	// stealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run: the main source of run-to-run
	// noise on a shared host.
	stealFrac float64
}

func (r *run) set(name string, v float64, n int) { r.values[name] = value{v, n} }

// problem records why the run's outputs are not correct.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, *run) error{
	"noc-sim":    func(ctx context.Context, r *run) error { return runBatch(ctx, r, batchWorkloads[0]) },
	"map-solve":  func(ctx context.Context, r *run) error { return runBatch(ctx, r, batchWorkloads[1]) },
	"jobs-mixed": runJobs,
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: noc-sim, map-solve or jobs-mixed")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same requests")
	seconds := fs.Int("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	child := fs.Bool("setup-child", false, "internal: start the workload's frontend, print ready, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child {
		return setupChild(*workload, *seed, stdout, stderr)
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload noc-sim|map-solve|jobs-mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	r := &run{
		cfg:    config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1},
		values: make(map[string]value),
		counts: make(map[string]map[string]uint64),
	}
	if r.cfg.trace {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	steal0, total0 := cpuTicks()
	if err := fn(context.Background(), r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.attempted > 0 {
		r.set("fail_frac", float64(r.failed)/float64(r.attempted), r.attempted)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		r.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	if err := r.emit(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     *int    `json:"n,omitempty"`
}

// emit writes the full record, then the one-line result that ends the output,
// to stdout, and keeps both (and the spans of a traced run) in outDir.
func (r *run) emit(stdout io.Writer) error {
	if r.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	correct := r.failed == 0 && len(r.problems) == 0
	list := endToEnd
	if r.cfg.trace {
		list = perLayer
	}
	short := make(map[string]outMetric, len(list))
	for _, d := range list {
		short[d.name] = outMetric{Value: r.values[d.name].v, Unit: d.unit}
	}
	full := make(map[string]outMetric, len(r.values))
	var notMeasured []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		v, ok := r.values[d.name]
		if !ok {
			notMeasured = append(notMeasured, d.name)
			continue
		}
		n := v.n
		full[d.name] = outMetric{Value: v.v, Unit: d.unit, N: &n}
	}
	sort.Strings(notMeasured)
	rec, err := json.Marshal(struct {
		Schema      string                       `json:"schema"`
		Workload    string                       `json:"workload"`
		Seed        uint64                       `json:"seed"`
		Seconds     float64                      `json:"seconds"`
		Trace       bool                         `json:"trace"`
		Host        host                         `json:"host"`
		StealFrac   float64                      `json:"steal_frac"`
		Correct     bool                         `json:"correct"`
		Attempted   int                          `json:"attempted"`
		Failed      int                          `json:"failed"`
		Problems    []string                     `json:"problems,omitempty"`
		Counts      map[string]map[string]uint64 `json:"counts,omitempty"`
		Metrics     map[string]outMetric         `json:"metrics"`
		NotMeasured []string                     `json:"not_measured,omitempty"`
	}{"perfbench.record/v1", r.cfg.workload, r.cfg.seed, r.cfg.seconds.Seconds(), r.cfg.trace, hostStamp(), r.stealFrac,
		correct, r.attempted, r.failed, r.problems, r.counts, full, notMeasured})
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{correct, r.attempted, r.failed, short})
	if err != nil {
		return err
	}
	trace := 0
	if r.cfg.trace {
		trace = 1
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", r.cfg.workload, r.cfg.seed, trace))
	if err := os.WriteFile(base+".record.json", rec, 0o644); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.tr.write(base + ".spans.json"); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", rec, line)
	return err
}

// timeRepeated runs fn n times and returns each duration in seconds.
func timeRepeated(n int, fn func() error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0).Seconds()
	}
	return out, nil
}
