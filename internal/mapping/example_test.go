package mapping_test

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

// Map the paper's Figure 5 worked example with sort-select-swap: the
// optimal, perfectly balanced solution gives every application an APL
// of 10.3375 cycles.
func ExampleSortSelectSwap() {
	lm := model.MustNew(mesh.MustNew(4, 4), model.Figure5Params())
	p := core.MustNewProblem(lm, workload.Figure5Workload())

	m, err := mapping.MapAndCheck(context.Background(), mapping.SortSelectSwap{}, p)
	if err != nil {
		panic(err)
	}
	ev := p.Evaluate(m)
	fmt.Printf("max-APL: %.4f cycles\n", ev.MaxAPL)
	fmt.Printf("dev-APL: %.4f\n", ev.DevAPL)
	// Output:
	// max-APL: 10.3375 cycles
	// dev-APL: 0.0000
}

// Global minimizes overall latency and, on this symmetric instance,
// happens to coincide with the balanced optimum.
func ExampleGlobal() {
	lm := model.MustNew(mesh.MustNew(4, 4), model.Figure5Params())
	p := core.MustNewProblem(lm, workload.Figure5Workload())

	m, err := mapping.MapAndCheck(context.Background(), mapping.Global{}, p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("g-APL: %.4f cycles\n", p.GlobalAPL(m))
	// Output:
	// g-APL: 10.3375 cycles
}

// Define a multi-application workload, build the OBM problem for an
// 8x8 mesh CMP, and compare sort-select-swap against the traditional
// overall-latency-optimal mapper: SSS equalizes the per-application
// latencies at a small cost in overall latency, the paper's Figure 8
// in miniature.
func Example_quickstart() {
	// A 64-tile chip with the paper's latency parameters (3-stage
	// routers, 1-cycle links).
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())

	// Four 16-thread applications with very different network loads:
	// rates are shared-L2 requests (c_j) and memory requests (m_j) per
	// microsecond per thread.
	w := &workload.Workload{Name: "quickstart"}
	specs := []struct {
		name       string
		cache, mem float64
	}{
		{"webserver", 2.0, 0.2},
		{"analytics", 6.0, 1.1},
		{"encoder", 11.0, 1.6},
		{"keyvalue", 25.0, 3.0},
	}
	for _, s := range specs {
		app := workload.Application{Name: s.name}
		for t := 0; t < 16; t++ {
			// Mild per-thread variation around the application's profile.
			f := 0.75 + 0.5*float64(t)/15
			app.Threads = append(app.Threads, workload.Thread{CacheRate: s.cache * f, MemRate: s.mem * f})
		}
		w.Apps = append(w.Apps, app)
	}
	p := core.MustNewProblem(lm, w)

	for _, m := range []mapping.Mapper{mapping.Global{}, mapping.SortSelectSwap{}} {
		mp, err := mapping.MapAndCheck(context.Background(), m, p)
		if err != nil {
			panic(err)
		}
		ev := p.Evaluate(mp)
		fmt.Printf("%s:\n", m.Name())
		for i, apl := range ev.APLs {
			fmt.Printf("  %-10s APL %6.2f cycles\n", w.Apps[i].Name, apl)
		}
		fmt.Printf("  max-APL %.2f  dev-APL %.4f  g-APL %.2f\n", ev.MaxAPL, ev.DevAPL, ev.GlobalAPL)
	}
	// Output:
	// Global:
	//   webserver  APL  25.75 cycles
	//   analytics  APL  23.04 cycles
	//   encoder    APL  21.49 cycles
	//   keyvalue   APL  19.99 cycles
	//   max-APL 25.75  dev-APL 2.1297  g-APL 21.05
	// SSS:
	//   webserver  APL  22.28 cycles
	//   analytics  APL  22.28 cycles
	//   encoder    APL  22.28 cycles
	//   keyvalue   APL  22.28 cycles
	//   max-APL 22.28  dev-APL 0.0029  g-APL 22.28
}
