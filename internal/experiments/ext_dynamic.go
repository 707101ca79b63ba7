package experiments

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/obs"
	"obm/internal/sched"
	"obm/internal/workload"
)

func init() { register(extDynamic{}) }

// extDynamic is an extension experiment backing Section IV.B's dynamic
// argument: applications arrive and depart over a timeline, and
// remapping policies trade migrations for sustained balance.
type extDynamic struct{}

func (extDynamic) ID() string { return "dynamic" }
func (extDynamic) Title() string {
	return "Extension: remapping policies under application churn (Section IV.B)"
}

// DynamicRow is one policy's outcome on the churn scenario.
type DynamicRow struct {
	Policy             string
	MaxAPL, DevAPL     float64
	Remaps, Migrations int
}

// DynamicResult is the policy comparison.
type DynamicResult struct {
	Rows []DynamicRow
}

// churnScenario builds a deterministic timeline from the paper
// configurations: applications of different intensities come and go.
func churnScenario() (sched.Scenario, error) {
	pick := func(cfg string, idx int, name string) (*workload.Application, error) {
		w, err := workload.Config(cfg)
		if err != nil {
			return nil, err
		}
		app := w.Apps[idx]
		app.Name = name
		return &app, nil
	}
	var sc sched.Scenario
	type arrival struct {
		t    int64
		cfg  string
		idx  int
		name string
	}
	arrivals := []arrival{
		{0, "C1", 3, "h1"}, {0, "C1", 0, "l1"}, {0, "C3", 2, "m1"},
		{150, "C3", 3, "h2"},
		{300, "C5", 0, "l2"},
		{450, "C8", 1, "m2"},
		{600, "C4", 3, "h3"},
	}
	departs := []struct {
		t    int64
		name string
	}{
		{300, "h1"}, {450, "m1"}, {600, "l1"}, {750, "h2"},
	}
	di := 0
	for _, a := range arrivals {
		for di < len(departs) && departs[di].t <= a.t {
			sc.Events = append(sc.Events, sched.Event{Time: departs[di].t, Depart: departs[di].name})
			di++
		}
		app, err := pick(a.cfg, a.idx, a.name)
		if err != nil {
			return sched.Scenario{}, err
		}
		sc.Events = append(sc.Events, sched.Event{Time: a.t, Arrive: app})
	}
	for di < len(departs) {
		sc.Events = append(sc.Events, sched.Event{Time: departs[di].t, Depart: departs[di].name})
		di++
	}
	sc.End = 900
	return sc, nil
}

func (e extDynamic) Run(ctx context.Context, o Options) (Result, error) {
	sc, err := churnScenario()
	if err != nil {
		return nil, err
	}
	lm := paperModel()
	run := func(pol sched.Policy, rm sched.Remapper) (sched.StreamMetrics, error) {
		r, err := sched.NewStreamRunner(lm, sched.StreamConfig{
			Placement: &sched.FirstFitPlacement{},
			Policy:    pol,
			Remapper:  rm,
			// A private registry keeps this experiment out of the
			// process-wide sched.stream.* counters.
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			return sched.StreamMetrics{}, err
		}
		return r.Run(ctx, sched.NewSliceSource(sc))
	}
	full := sched.FullRemap{Mapper: mapping.SortSelectSwap{}}
	policies := []sched.Policy{
		sched.Never{},
		sched.Every{Interval: 300},
		sched.WhenUnbalanced{Threshold: 0.5},
		sched.OnChange{},
	}
	res := &DynamicResult{}
	for _, pol := range policies {
		met, err := run(pol, full)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, DynamicRow{
			Policy: pol.Name(),
			MaxAPL: met.TimeWeightedMaxAPL,
			DevAPL: met.TimeWeightedDevAPL,
			Remaps: met.Remaps, Migrations: met.Migrations,
		})
	}
	// On-change with a per-remap migration budget: the deployment-shaped
	// compromise.
	budget := &slotCountingBudget{budget: 16}
	met, err := run(sched.OnChange{}, budget)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, DynamicRow{
		Policy: "on-change<=16mig",
		MaxAPL: met.TimeWeightedMaxAPL,
		DevAPL: met.TimeWeightedDevAPL,
		Remaps: met.Remaps, Migrations: budget.moved,
	})
	return res, nil
}

// slotCountingBudget is sched.BudgetRemap that also sums the refiner's
// own moved count over every remap. That count includes idle-pad
// slots, so it is higher than the live-thread moves StreamRunner
// reports (96 against 90 on the churn timeline: the last remap moves
// 16 slots, 10 of them threads). The budget row reports this count
// because the published table and its pinned references do. It counts
// every candidate, adopted or not; on this timeline all are adopted.
type slotCountingBudget struct {
	budget int
	moved  int
}

// Name implements sched.Remapper.
func (b *slotCountingBudget) Name() string { return fmt.Sprintf("budget-%d", b.budget) }

// Remap implements sched.Remapper.
func (b *slotCountingBudget) Remap(ctx context.Context, p *core.Problem, incumbent core.Mapping) (core.Mapping, error) {
	m, moved, err := mapping.ImproveWithBudgetObjective(ctx, p, incumbent, b.budget, nil)
	b.moved += moved
	return m, err
}

func (r *DynamicResult) table() *Table {
	t := newTable("Remapping policies under application churn (time-weighted)",
		"Policy", "max-APL", "dev-APL", "remaps", "migrations")
	for _, row := range r.Rows {
		t.addRow(row.Policy,
			fmt.Sprintf("%.3f", row.MaxAPL),
			fmt.Sprintf("%.4f", row.DevAPL),
			fmt.Sprint(row.Remaps),
			fmt.Sprint(row.Migrations))
	}
	return t
}

func (r *DynamicResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(remap-on-change sustains balance through churn at the highest migration\n" +
			" cost; capping each remap at 16 best-first migrations keeps the same\n" +
			" balance for a third of the moves; the adaptive dev-threshold policy\n" +
			" remaps rarely; blind periodic remaps help little; never drifts)\n"))
}

// Render implements Result.
func (r *DynamicResult) Render() string { return r.doc().Render() }

// CSV implements Result.
func (r *DynamicResult) CSV() string { return r.doc().CSV() }

// JSON implements Result.
func (r *DynamicResult) JSON() ([]byte, error) { return r.doc().JSON() }
