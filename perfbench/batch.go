package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"obm/internal/engine"
	"obm/internal/experiments"
	"obm/internal/obs"
	"obm/internal/scenario"
	"obm/internal/service"
)

// batchWorkload is one -quick Execute of a fixed experiment list from a
// cold shared artifact cache, repeated for the measured time.
type batchWorkload struct {
	name        string
	experiments []string
}

var batchWorkloads = []batchWorkload{
	// Flit-level simulation: noc.(*Network).Step dominates; mapping is
	// negligible. A router or sim change must show up here.
	{"noc-sim", []string{"loadsweep", "burst", "tail", "fig11", "validate", "congestion"}},
	// The analytic model, mappers, scheduler and artifact memory tier;
	// no flit is simulated. ablation and scaling are left out because
	// their envelopes embed host timings and cannot be checked.
	{"map-solve", []string{"table1", "table3", "table4", "fig3", "fig4", "fig5", "fig8", "fig9", "fig10",
		"fig12", "gap", "objective", "pareto", "seeds", "dynamic", "dynstream", "placement", "capacity", "topology"}},
}

// referenceSeeds is how many request seeds have committed reference
// outputs; the workload seed selects one of them.
const referenceSeeds = 16

// requestSeed maps a workload seed onto a request seed with a committed
// reference: 1..referenceSeeds.
func requestSeed(seed uint64) uint64 { return 1 + seed%referenceSeeds }

// reference is one request's expected output: the SHA-256 of its
// obmsim.run/v1 envelope (no metrics block) and its deterministic counts.
type reference struct {
	Envelope string            `json:"envelope_sha256"`
	Counts   map[string]uint64 `json:"counts"`
}

// references is written by gen_references.sh from the obmsim CLI:
// workload → request seed → reference.
//
//go:embed references.json
var referencesJSON []byte

// countNames maps each deterministic per-pass count to its obs counter.
// Each must equal the committed reference for the pass's request seed: a
// change that alters one on purpose (a caching change that lowers
// artifact.computed, say) regenerates the references with
// gen_references.sh, as an output-changing change does.
var countNames = map[string]string{
	"noc.cycles":           "noc.cycles.stepped",
	"noc.flits":            "noc.flits.delivered",
	"artifact.computed":    "artifact.store.computed",
	"sched.remap_attempts": "sched.stream.remap.attempts",
}

type expRecord struct {
	id          string
	elapsed     time.Duration
	replicaJobs uint64
	replicaBusy float64
}

type passRecord struct {
	seed   uint64
	ref    reference
	wall   time.Duration
	traced bool
	obs    obsDelta
	exps   []expRecord
	out    *service.Outcome
}

func runBatch(ctx context.Context, r *run, w batchWorkload) error {
	var refs map[string]map[string]reference
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		return fmt.Errorf("references: %w", err)
	}
	if err := r.measureSetup(); err != nil {
		return err
	}

	var prof *cpuProfile
	if r.cfg.trace {
		prof = newCPUProfile()
		if err := prof.start(); err != nil {
			return err
		}
	}
	rt0 := readGoRuntime()
	start := time.Now()
	var passes []passRecord
	for i := 0; i == 0 || time.Since(start) < r.cfg.seconds || (r.cfg.trace && i%2 == 1); i++ {
		// Passes cycle through request seeds, so one run's median spans
		// several inputs. A traced run runs each seed twice, untraced and
		// traced in alternating order, so the span-recording overhead is
		// measured on equal work and the process's first pass favours
		// neither side.
		k, traced := i, false
		if r.cfg.trace {
			k, traced = i/2, i%2 != (i/2)%2
		}
		seed := requestSeed(r.cfg.seed + uint64(k))
		ref, ok := refs[w.name][strconv.FormatUint(seed, 10)]
		if !ok {
			return fmt.Errorf("no reference for %s request seed %d", w.name, seed)
		}
		req := service.Request{Experiments: w.experiments, Quick: true, Seed: seed}
		p, err := batchPass(ctx, req, r.tr, traced, fmt.Sprintf("pass-%d", i))
		p.seed, p.ref = seed, ref
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			r.problem("pass %d (seed %d): %v", i, seed, err)
			continue
		case sha(p.out.Envelope) != ref.Envelope:
			r.failed++
			r.problem("pass %d (seed %d): envelope sha256 %s, reference %s", i, seed, sha(p.out.Envelope), ref.Envelope)
		}
		passes = append(passes, p)
		if i == 0 {
			// Peak memory after a fixed amount of work: the first pass.
			rss, err := peakRSSMB()
			if err != nil {
				return err
			}
			r.set("max_rss_mb", rss, 1)
		}
	}
	rt1 := readGoRuntime()
	if prof != nil {
		if err := prof.stop(); err != nil {
			return err
		}
		for name, pkg := range layerPackages {
			r.set(name, prof.share(pkg), int(prof.total/1e7))
		}
	}
	if len(passes) == 0 {
		return nil
	}
	r.setGoRuntime(rt0, rt1, len(passes))
	r.batchCounts(passes)
	r.batchTimes(passes)
	r.batchQuality(passes[0].out)
	if r.cfg.trace {
		return r.probeBatch(ctx, w, requestSeed(r.cfg.seed))
	}
	return nil
}

// batchPass runs one Execute from a cold shared cache. In a traced pass
// each experiment becomes a child span of the Execute span and the obs
// registry is read after every experiment, to split replica work by
// experiment.
func batchPass(ctx context.Context, req service.Request, tr *tracer, traced bool, runID string) (passRecord, error) {
	scenario.ResetShared()
	p := passRecord{traced: traced}
	if !traced {
		tr = nil
	}
	before := obs.Default().Snapshot()
	prev := before
	parent := tr.reserve("service.Execute", runID, 0)
	t0 := time.Now()
	out, err := service.Execute(ctx, req, service.ExecConfig{
		OnResult: func(res engine.Result, _ json.RawMessage) {
			rec := expRecord{id: res.Name, elapsed: res.Elapsed}
			if tr != nil {
				end := time.Now()
				tr.record("exp."+res.Name, runID, parent, end.Add(-res.Elapsed), end)
				snap := obs.Default().Snapshot()
				d := obsDelta{prev, snap}
				rec.replicaJobs = d.counter("sim.replicas.jobs.completed")
				_, rec.replicaBusy = d.histogram("sim.replicas.job.seconds")
				prev = snap
			}
			p.exps = append(p.exps, rec)
		},
	})
	p.wall = time.Since(t0)
	tr.finish(parent, t0, t0.Add(p.wall))
	p.obs = obsDelta{before, obs.Default().Snapshot()}
	p.out = out
	if err == nil && len(p.exps) != len(req.Experiments) {
		err = fmt.Errorf("%d of %d experiments reported", len(p.exps), len(req.Experiments))
	}
	return p, err
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// batchCounts records the per-pass counts and checks each against the
// committed reference for its request seed.
func (r *run) batchCounts(passes []passRecord) {
	sums := make(map[string]float64)
	for _, p := range passes {
		seen := make(map[string]uint64)
		r.counts[strconv.FormatUint(p.seed, 10)] = seen
		for name, counter := range countNames {
			v := p.obs.counter(counter)
			if want := p.ref.Counts[name]; v != want {
				r.problem("%s: seed %d counted %d, reference %d", name, p.seed, v, want)
			}
			seen[name] = v
			sums[name] += float64(v)
		}
	}
	for name, sum := range sums {
		r.set(name, sum/float64(len(passes)), len(passes))
	}
}

// batchTimes derives the timing metrics of the passes: end-to-end from
// the untraced passes, per-layer from all of them.
func (r *run) batchTimes(passes []passRecord) {
	var walls, traced []float64
	perExp := make(map[string][]float64)
	var agg obsDelta
	agg.before, agg.after = passes[0].obs.before, passes[len(passes)-1].obs.after
	var replicaBusy, replicaWall float64
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p.wall.Seconds())
		} else {
			walls = append(walls, p.wall.Seconds())
		}
		for _, e := range p.exps {
			perExp[e.id] = append(perExp[e.id], e.elapsed.Seconds()*1e3)
			if e.replicaJobs > 0 {
				replicaBusy += e.replicaBusy
				replicaWall += e.elapsed.Seconds()
			}
		}
	}
	if len(walls) == 0 {
		walls = traced
	}
	wall := median(walls)
	r.set("wall_s", wall, len(walls))
	r.set("job_p50_ms", wall*1e3, len(walls))
	var total, flits float64
	for _, p := range passes {
		total += p.wall.Seconds()
		flits += float64(p.obs.counter(countNames["noc.flits"]))
	}
	r.set("jobs_per_s", 1/wall, len(walls))
	if flits > 0 {
		r.set("sim_flits_per_s", flits/total, len(passes))
	}
	// Passes 2k and 2k+1 of a traced run are one request, once traced.
	var overhead []float64
	for i := 1; i < len(passes); i += 2 {
		a, b := passes[i-1], passes[i]
		if a.seed == b.seed && a.traced != b.traced {
			if a.traced {
				a, b = b, a
			}
			overhead = append(overhead, b.wall.Seconds()/a.wall.Seconds()-1)
		}
	}
	if len(overhead) > 0 {
		r.set("trace.overhead_frac", median(overhead), len(overhead))
	}
	for id, ms := range perExp {
		r.set("exp."+id+".ms", median(ms), len(ms))
	}
	if replicaWall > 0 {
		r.set("sim.replica_parallelism", replicaBusy/replicaWall, len(traced))
	}
	r.setLayerCounts(agg, len(passes))
}

// setLayerCounts records the per-pass work of the sim, mapping, sched
// and artifact layers from the obs registry.
func (r *run) setLayerCounts(d obsDelta, passes int) {
	n := float64(passes)
	r.set("sim.replica_jobs", float64(d.counter("sim.replicas.jobs.completed"))/n, passes)
	r.set("sim.replica_failed", float64(d.counter("sim.replicas.jobs.failed"))/n, passes)
	_, busy := d.histogram("sim.replicas.job.seconds")
	r.set("sim.replica_busy_s", busy/n, passes)
	r.set("mapping.calls", float64(d.counters("mapping.", ".calls"))/n, passes)
	r.set("mapping.busy_s", d.histogramSums("mapping.", ".seconds")/n, passes)
	r.setSched(d, passes)
	r.setArtifact(d, passes)
}

// setSched records the scheduler's per-pass counts and remap latency.
func (r *run) setSched(d obsDelta, passes int) {
	n := float64(passes)
	events := d.counter("sched.stream.events")
	attempts := d.counter("sched.stream.remap.attempts")
	r.set("sched.events", float64(events)/n, passes)
	if attempts > 0 {
		r.set("sched.remap_accept_ratio", float64(d.counter("sched.stream.remaps"))/float64(attempts), int(attempts))
	}
	if c, sum := d.histogram("sched.remap.seconds"); c > 0 {
		r.set("sched.remap_ms", sum/float64(c)*1e3, int(c))
	}
}

// setArtifact records the artifact store's per-pass traffic.
func (r *run) setArtifact(d obsDelta, passes int) {
	n := float64(passes)
	mem := d.counter("artifact.mem.hits")
	disk := d.counter("artifact.disk.hits")
	computed := d.counter("artifact.store.computed")
	r.set("artifact.mem_hits", float64(mem)/n, passes)
	r.set("artifact.disk_hits", float64(disk)/n, passes)
	if _, ok := r.values["artifact.computed"]; !ok {
		r.set("artifact.computed", float64(computed)/n, passes)
	}
	if total := mem + disk + computed; total > 0 {
		r.set("artifact.hit_ratio", float64(mem+disk)/float64(total), int(total))
	}
	errs := d.counter("artifact.disk.write_errors") + d.counter("artifact.disk.corrupt") + d.counter("artifact.disk.schema_mismatch")
	r.set("artifact.disk_errors", float64(errs), passes)
	r.set("artifact.mem_entries", float64(scenario.Shared().Len()), 1)
}

// batchQuality records the paper's two headline figures when the pass
// produced them: validate's model error and fig9's SSS-vs-Global
// reduction. Both repeat exactly per seed (they are part of the checked
// envelope).
func (r *run) batchQuality(out *service.Outcome) {
	for _, res := range out.Results {
		switch v := res.Value.(type) {
		case *experiments.ValidateResult:
			r.set("model_err_cycles", v.MeanAbsErr, 1)
		case *experiments.MapperSeries:
			if res.Name != "fig9" {
				continue
			}
			avg := make(map[string]float64)
			for mi, name := range v.Mappers {
				for _, x := range v.Values[mi] {
					avg[name] += x / float64(len(v.Values[mi]))
				}
			}
			if g := avg["Global"]; g > 0 {
				r.set("sss_redux_pct", (g-avg["SSS"])/g*100, 1)
			}
		}
	}
	// Re-encode the results outside the timed passes to price the
	// experiments' JSON encoding per pass.
	enc, err := encodeTime(out)
	if err != nil {
		r.problem("%v", err)
		return
	}
	r.set("experiments.encode_ms", enc.Seconds()*1e3, 1)
}

// encodeTime re-encodes an outcome's typed experiment results (the work
// Execute does per experiment) and returns how long that took.
func encodeTime(out *service.Outcome) (time.Duration, error) {
	t0 := time.Now()
	for _, res := range out.Results {
		if er, ok := res.Value.(experiments.Result); ok {
			if _, err := er.JSON(); err != nil {
				return 0, fmt.Errorf("encoding %s: %w", res.Name, err)
			}
		}
	}
	return time.Since(t0), nil
}
