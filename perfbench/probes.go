package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"obm/internal/artifact"
	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/noc"
	"obm/internal/obs"
	"obm/internal/sched"
	"obm/internal/sim"
	"obm/internal/workload"
)

// The probe phase of a traced run calls each layer's public functions
// directly, in the shapes the workload uses them (the -quick budgets on
// the paper's C1 configuration), and times every call as a span.

// probe times reps calls of fn and returns the median and total
// duration.
func (r *run) probe(name string, reps int, fn func() error) (med, total time.Duration, err error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, fmt.Errorf("probe %s: %w", name, err)
		}
		t1 := time.Now()
		r.tr.record(name, "probe", 0, t0, t1)
		ds[i] = t1.Sub(t0).Seconds()
		total += t1.Sub(t0)
	}
	return time.Duration(median(ds) * 1e9), total, nil
}

// probeProblem is the paper's C1 configuration on the 8x8 mesh, mapped
// by sort-select-swap.
func probeProblem(ctx context.Context) (*core.Problem, core.Mapping, error) {
	w, err := workload.Config("C1")
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewProblem(model.MustNew(mesh.MustNew(8, 8), model.DefaultParams()), w)
	if err != nil {
		return nil, nil, err
	}
	m, err := mapping.SortSelectSwap{}.Map(ctx, p)
	return p, m, err
}

func (r *run) probeBatch(ctx context.Context, w batchWorkload, seed uint64) error {
	p, m, err := probeProblem(ctx)
	if err != nil {
		return err
	}
	if w.name == "noc-sim" {
		return r.probeSim(ctx, p, m, seed)
	}
	if err := r.probeMapping(ctx, p, m, seed); err != nil {
		return err
	}
	if err := r.probeSched(ctx, seed); err != nil {
		return err
	}
	return r.probeArtifact(ctx, p, m, "")
}

func (r *run) probeJobs(ctx context.Context) error {
	p, m, err := probeProblem(ctx)
	if err != nil {
		return err
	}
	if err := r.probeMapping(ctx, p, m, r.cfg.seed); err != nil {
		return err
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpDir, "disktier-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return r.probeArtifact(ctx, p, m, dir)
}

// probeSim times a loadsweep point and a validate-shaped rate-driven
// simulation.
func (r *run) probeSim(ctx context.Context, p *core.Problem, m core.Mapping, seed uint64) error {
	sw := noc.DefaultSweepConfig()
	sw.Seed = seed + 41
	sw.Rates = []float64{0.04}
	sw.Cycles = 8_000
	before := obs.Default().Snapshot()
	_, total, err := r.probe("noc.MeasureLoadPoint", 3, func() error {
		_, err := noc.MeasureLoadPoint(noc.DefaultConfig(), noc.UniformRandom{}, 0.04, sw)
		return err
	})
	if err != nil {
		return err
	}
	if cycles := (obsDelta{before, obs.Default().Snapshot()}).counter("noc.cycles.stepped"); cycles > 0 {
		r.set("noc.step_ns", float64(total.Nanoseconds())/float64(cycles), int(cycles))
	}

	cfg := sim.DefaultRateDrivenConfig()
	cfg.Seed = seed + 5
	cfg.MeasureCycles = 50_000
	med, _, err := r.probe("sim.RateDriven", 3, func() error {
		_, err := sim.RateDriven(ctx, p, m, cfg)
		return err
	})
	r.set("sim.rate_driven_ms", med.Seconds()*1e3, 3)
	return err
}

// probeMapping times the four paper mappers and NSGA-II under the quick
// budgets, and the analytic model's SAM solve and evaluation.
func (r *run) probeMapping(ctx context.Context, p *core.Problem, m core.Mapping, seed uint64) error {
	mappers := []struct {
		metric string
		reps   int
		m      mapping.Mapper
	}{
		{"mapping.sss_ms", 5, mapping.SortSelectSwap{}},
		{"mapping.sa_ms", 3, mapping.Annealing{Iters: 5_000, Seed: seed + 2}},
		{"mapping.mc_ms", 3, mapping.MonteCarlo{Samples: 1_000, Seed: seed + 1}},
		{"mapping.global_ms", 5, mapping.Global{}},
	}
	for _, mp := range mappers {
		med, _, err := r.probe(mp.m.Name()+".Map", mp.reps, func() error {
			_, err := mp.m.Map(ctx, p)
			return err
		})
		if err != nil {
			return err
		}
		r.set(mp.metric, med.Seconds()*1e3, mp.reps)
	}
	nsga := mapping.NSGAII{Population: 24, Generations: 20, Seed: seed + 3}
	med, _, err := r.probe("NSGAII.MapSet", 3, func() error {
		_, err := nsga.MapSet(ctx, p)
		return err
	})
	if err != nil {
		return err
	}
	r.set("mapping.nsga2_ms", med.Seconds()*1e3, 3)

	lo, hi := p.AppThreads(0)
	tiles := append([]mesh.Tile(nil), m[lo:hi]...)
	med, _, err = r.probe("Problem.SolveSAM", 200, func() error {
		_, _, err := p.SolveSAM(lo, hi, tiles)
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.sam_us", med.Seconds()*1e6, 200)
	med, _, _ = r.probe("Problem.Evaluate", 200, func() error {
		p.Evaluate(m)
		return nil
	})
	r.set("core.evaluate_us", med.Seconds()*1e6, 200)
	return nil
}

// probeSched streams dynstream's quick timeline through its warm-start
// remapping scheme.
func (r *run) probeSched(ctx context.Context, seed uint64) error {
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	obj := core.Weighted{Max: 1, Dev: 2}
	cfg := sched.StreamConfig{
		Placement: &sched.SpiralPlacement{},
		Policy:    sched.Every{Interval: 2_500},
		Remapper:  sched.WarmRemap{SSS: mapping.SortSelectSwap{Objective: obj, MaxStep: 4, Passes: 1}},
		Cost:      sched.CompositeCost{Objective: obj, PerMigration: 0.01},
	}
	var events int
	_, total, err := r.probe("StreamRunner.Run", 2, func() error {
		src, err := sched.NewGenerator(sched.GenConfig{Events: 10_000, Tiles: lm.NumTiles(), Seed: seed})
		if err != nil {
			return err
		}
		sr, err := sched.NewStreamRunner(lm, cfg)
		if err != nil {
			return err
		}
		met, err := sr.Run(ctx, src)
		events += met.Events
		return err
	})
	if err != nil {
		return err
	}
	r.set("sched.events_per_s", float64(events)/total.Seconds(), 2)
	return nil
}

// probeArtifact times a memory-tier hit and, given a directory, disk-tier
// writes and reads of a C1 artifact.
func (r *run) probeArtifact(ctx context.Context, p *core.Problem, m core.Mapping, diskDir string) error {
	a := artifact.Artifact{Mapping: m, Eval: p.Evaluate(m)}
	compute := func(context.Context) (artifact.Artifact, error) { return a, nil }
	wu := artifact.NewWorkUnit(p.Fingerprint(), mapping.SortSelectSwap{}.Fingerprint(), "probe")
	store := artifact.NewStore(nil)
	if _, _, err := store.Get(ctx, wu, compute); err != nil {
		return err
	}
	med, _, err := r.probe("Store.Get", 200, func() error {
		_, src, err := store.Get(ctx, wu, compute)
		if err == nil && src != artifact.SourceMemory {
			err = fmt.Errorf("served from %v, want memory", src)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("artifact.get_hit_us", med.Seconds()*1e6, 200)
	if diskDir == "" {
		return nil
	}

	disk, err := artifact.OpenDisk(diskDir, 0)
	if err != nil {
		return err
	}
	const n = 50
	i := 0
	key := func() artifact.WorkUnit {
		i++
		return artifact.NewWorkUnit(p.Fingerprint(), fmt.Sprintf("probe-%d", i%n), "probe")
	}
	med, _, err = r.probe("DiskTier.Put", n, func() error { return disk.Put(key(), a) })
	if err != nil {
		return err
	}
	r.set("artifact.disk_put_us", med.Seconds()*1e6, n)
	med, _, err = r.probe("DiskTier.Get", n, func() error {
		if _, ok := disk.Get(key()); !ok {
			return fmt.Errorf("disk tier lost an artifact")
		}
		return nil
	})
	r.set("artifact.disk_get_us", med.Seconds()*1e6, n)
	return err
}
