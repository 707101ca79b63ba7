package experiments

import (
	"context"

	"obm/internal/core"
	"obm/internal/power"
	"obm/internal/sim"
)

func init() { register(fig11{}) }

// fig11 reproduces Figure 11: dynamic NoC power of the four mapping
// methods, measured by running the flit-level simulator under each
// mapping and feeding the flit-activity counts to the DSENT-style power
// model. The paper reports SSS within 2.7% of Global.
type fig11 struct{}

func (fig11) ID() string    { return "fig11" }
func (fig11) Title() string { return "Figure 11: dynamic NoC power comparison" }

func (f fig11) Run(ctx context.Context, o Options) (Result, error) {
	// Simulation is the expensive part; the paper's power story is the
	// same on every configuration, so the default set is trimmed.
	sp, err := o.Spec("C1", "C3", "C5", "C7")
	if err != nil {
		return nil, err
	}
	cfgs := sp.Configs
	if o.Quick {
		if len(o.Configs) == 0 {
			cfgs = []string{"C1", "C5"}
		}
	}
	mappers := sp.StandardMappers()
	res := &MapperSeries{
		Caption:    "Figure 11: dynamic NoC power normalized to Global",
		Configs:    cfgs,
		Unit:       "normalized W",
		Normalized: true,
		PaperNote:  "paper: SSS overhead <2.7% vs Global, slightly better than MC and SA",
	}
	for _, m := range mappers {
		res.Mappers = append(res.Mappers, shortName(m))
	}
	scfg := sim.DefaultRateDrivenConfig()
	scfg.Seed = o.Seed + 11
	if o.Quick {
		scfg.MeasureCycles = 40_000
	}
	// Map every (config, mapper) pair first, then run their simulations
	// as one job list across cores, each reduced in the worker to its
	// dynamic power.
	probs := make([]*core.Problem, len(cfgs))
	mps := make([][]core.Mapping, len(cfgs))
	for ci, cfg := range cfgs {
		if probs[ci], err = problemFor(cfg); err != nil {
			return nil, err
		}
		if mps[ci], err = mapEach(ctx, probs[ci], mappers); err != nil {
			return nil, err
		}
	}
	pparams := power.Default45nm()
	watts, err := sim.RunReplicas(ctx, len(cfgs)*len(mappers), 0, func(ctx context.Context, i int) (float64, error) {
		ci, mi := i/len(mappers), i%len(mappers)
		p := probs[ci]
		sr, err := sim.RateDriven(ctx, p, mps[ci][mi], scfg)
		if err != nil {
			return 0, err
		}
		msh := p.Model().Mesh()
		rep, err := power.Estimate(pparams, sr.Net, msh.NumTiles(),
			power.MeshLinkCount(msh.Rows(), msh.Cols()))
		if err != nil {
			return 0, err
		}
		return rep.DynamicW, nil
	})
	if err != nil {
		return nil, err
	}
	res.Values = make([][]float64, len(mappers))
	for mi := range mappers {
		res.Values[mi] = make([]float64, len(cfgs))
		for ci := range cfgs {
			res.Values[mi][ci] = watts[ci*len(mappers)+mi]
		}
	}
	return res, nil
}
