package main

import (
	"runtime/metrics"
	"strings"

	"obm/internal/obs"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract and must match BENCHMARK.json
// (TestCatalogMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the program sees, printed with --trace 0.
// Every entry is measured, and non-zero, on every workload: a pass is
// one Execute of the workload's experiment list on the batch workloads
// and one round of roundLen jobs on jobs-mixed; a job is one request to
// the program (an Execute pass, or a daemon job).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"job_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// perLayer is printed with --trace 1. A metric a workload does not reach
// prints as 0 and is listed under not_measured in the record. Counts and
// busy times are per pass.
var perLayer = append([]metricDef{
	{"noc.cycles", "count"},
	{"noc.flits", "count"},
	{"noc.step_ns", "ns"},
	{"noc.cpu_share", "frac"},
	{"sim.rate_driven_ms", "ms"},
	{"sim.replica_jobs", "count"},
	{"sim.replica_failed", "count"},
	{"sim.replica_busy_s", "s"},
	{"sim.replica_parallelism", "x"},
	{"sim.cpu_share", "frac"},
	{"mapping.sss_ms", "ms"},
	{"mapping.sa_ms", "ms"},
	{"mapping.mc_ms", "ms"},
	{"mapping.global_ms", "ms"},
	{"mapping.nsga2_ms", "ms"},
	{"mapping.calls", "count"},
	{"mapping.busy_s", "s"},
	{"mapping.cpu_share", "frac"},
	{"core.sam_us", "us"},
	{"core.evaluate_us", "us"},
	{"core.cpu_share", "frac"},
	{"hungarian.cpu_share", "frac"},
	{"sched.events", "count"},
	{"sched.remap_attempts", "count"},
	{"sched.remap_accept_ratio", "frac"},
	{"sched.remap_ms", "ms"},
	{"sched.events_per_s", "1/s"},
	{"sched.cpu_share", "frac"},
	{"artifact.computed", "count"},
	{"artifact.mem_hits", "count"},
	{"artifact.disk_hits", "count"},
	{"artifact.hit_ratio", "frac"},
	{"artifact.get_hit_us", "us"},
	{"artifact.disk_get_us", "us"},
	{"artifact.disk_put_us", "us"},
	{"artifact.disk_errors", "count"},
	{"artifact.mem_entries", "count"},
	{"service.queue_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.transport_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.result_bytes", "B"},
	{"service.rejected", "count"},
	{"experiments.encode_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"job_p95_ms", "ms"},
	{"fail_frac", "frac"},
	{"sim_flits_per_s", "1/s"},
	{"model_err_cycles", "cycles"},
	{"sss_redux_pct", "%"},
}, expMetrics()...)

// expMetrics names exp.<id>.ms for every experiment of the batch
// workloads.
func expMetrics() []metricDef {
	var out []metricDef
	for _, w := range batchWorkloads {
		for _, id := range w.experiments {
			out = append(out, metricDef{"exp." + id + ".ms", "ms"})
		}
	}
	return out
}

// layerPackages maps each *.cpu_share metric to the package whose leaf
// frames it counts.
var layerPackages = map[string]string{
	"noc.cpu_share":       "obm/internal/noc",
	"sim.cpu_share":       "obm/internal/sim",
	"mapping.cpu_share":   "obm/internal/mapping",
	"core.cpu_share":      "obm/internal/core",
	"hungarian.cpu_share": "obm/internal/hungarian",
	"sched.cpu_share":     "obm/internal/sched",
}

// obsDelta reads the change of obs registry metrics between two
// snapshots. Histograms are read as count and sum only: their bucket
// bounds are not quantiles.
type obsDelta struct{ before, after obs.Snapshot }

func (d obsDelta) counter(name string) uint64 {
	a, _ := d.after.Counter(name)
	b, _ := d.before.Counter(name)
	return a - b
}

// histogram returns the count and sum observed between the snapshots.
func (d obsDelta) histogram(name string) (uint64, float64) {
	a, _ := d.after.Histogram(name)
	b, _ := d.before.Histogram(name)
	return a.Count - b.Count, a.Sum - b.Sum
}

// counters sums the deltas of every counter named prefix*suffix.
func (d obsDelta) counters(prefix, suffix string) uint64 {
	var n uint64
	for _, c := range d.after.Counters {
		if strings.HasPrefix(c.Name, prefix) && strings.HasSuffix(c.Name, suffix) {
			n += d.counter(c.Name)
		}
	}
	return n
}

// histogramSums sums the observed-value deltas of every histogram named
// prefix*suffix.
func (d obsDelta) histogramSums(prefix, suffix string) float64 {
	var s float64
	for _, h := range d.after.Histograms {
		if strings.HasPrefix(h.Name, prefix) && strings.HasSuffix(h.Name, suffix) {
			_, sum := d.histogram(h.Name)
			s += sum
		}
	}
	return s
}

// goRuntime is a reading of the Go runtime's cumulative counters.
type goRuntime struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goRuntime{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// setGoRuntime records the runtime metrics of a measured window of
// passes passes.
func (r *run) setGoRuntime(before, after goRuntime, passes int) {
	r.set("go.alloc_mb", float64(after.allocBytes-before.allocBytes)/(1<<20)/float64(passes), passes)
	r.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles)/float64(passes), passes)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.set("go.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu, passes)
	}
}
