package sim_test

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/noc"
	"obm/internal/power"
	"obm/internal/sim"
	"obm/internal/workload"
)

// Run the flit-level wormhole network under two mappings of the same
// workload and compare measured per-application latencies with the
// analytic model, plus queuing and DSENT-style power: the substrate
// behind the paper's Figure 11 and the check on its latency model.
func ExampleRateDriven() {
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	p := core.MustNewProblem(lm, workload.MustConfig("C1"))
	cfg := sim.DefaultRateDrivenConfig()
	cfg.MeasureCycles = 20_000
	msh := lm.Mesh()

	for _, m := range []mapping.Mapper{mapping.Global{}, mapping.SortSelectSwap{}} {
		mp, err := mapping.MapAndCheck(context.Background(), m, p)
		if err != nil {
			panic(err)
		}
		res, err := sim.RateDriven(context.Background(), p, mp, cfg)
		if err != nil {
			panic(err)
		}
		pred := p.Evaluate(mp)
		fmt.Printf("%s:\n", m.Name())
		for a := 0; a < p.NumApps(); a++ {
			fmt.Printf("  app %d: measured APL %6.2f  (model %6.2f)\n", a+1, res.AppAPL[a], pred.APLs[a])
		}
		rep, err := power.Estimate(power.Default45nm(), res.Net, msh.NumTiles(),
			power.MeshLinkCount(msh.Rows(), msh.Cols()))
		if err != nil {
			panic(err)
		}
		fmt.Printf("  max-APL %.2f  dev-APL %.4f  queuing %.3f cyc/hop\n",
			res.MaxAPL, res.DevAPL, res.Net.AvgQueuingPerHop())
		fmt.Printf("  NoC power: %.3f W dynamic + %.3f W leakage\n", rep.DynamicW, rep.StaticW)
	}
	// Output:
	// Global:
	//   app 1: measured APL  20.54  (model  22.74)
	//   app 2: measured APL  22.04  (model  21.54)
	//   app 3: measured APL  20.23  (model  21.26)
	//   app 4: measured APL  19.41  (model  19.64)
	//   max-APL 22.04  dev-APL 0.9532  queuing 0.089 cyc/hop
	//   NoC power: 0.050 W dynamic + 0.224 W leakage
	// SSS:
	//   app 1: measured APL  19.69  (model  20.72)
	//   app 2: measured APL  19.82  (model  20.72)
	//   app 3: measured APL  20.11  (model  20.79)
	//   app 4: measured APL  20.31  (model  20.78)
	//   max-APL 20.31  dev-APL 0.2426  queuing 0.073 cyc/hop
	//   NoC power: 0.052 W dynamic + 0.224 W leakage
}

// Drive the closed-loop memory hierarchy (private L1s, address-
// interleaved shared L2 banks with a sharer directory, corner memory
// controllers) with synthetic address streams, and watch all five CMP
// packet types cross the network.
func ExampleCacheDriven() {
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	p := core.MustNewProblem(lm, workload.MustConfig("C5"))
	mp, err := mapping.MapAndCheck(context.Background(), mapping.SortSelectSwap{}, p)
	if err != nil {
		panic(err)
	}
	cfg := sim.DefaultCacheDrivenConfig()
	cfg.Cycles = 20_000
	res, err := sim.CacheDriven(context.Background(), p, mp, cfg)
	if err != nil {
		panic(err)
	}

	fmt.Printf("C5 under SSS, %d cycles\n", res.Cycles)
	fmt.Printf("accesses %d, L1 misses %d (%.1f%%)\n",
		res.Cache.Accesses, res.Cache.L1Misses, 100*res.Cache.L1MissRate())
	fmt.Printf("L2 hits %d, misses %d, forwards %d, memory fetches %d\n",
		res.Cache.L2Hits, res.Cache.L2Misses, res.Cache.Forwards, res.Cache.MemRequests)
	for _, pt := range []noc.PacketType{noc.CacheRequest, noc.CacheReply, noc.CacheForward, noc.MemRequest, noc.MemReply} {
		ts := res.Net.ByType[pt]
		if ts.Packets == 0 {
			continue
		}
		fmt.Printf("  %-14s %6d packets, latency %6.2f cycles, %.2f hops\n",
			pt, ts.Packets, ts.AvgLatency(), ts.AvgHops())
	}
	fmt.Printf("max-APL %.2f, dev-APL %.4f\n", res.MaxAPL, res.DevAPL)
	// Output:
	// C5 under SSS, 20248 cycles
	// accesses 50061, L1 misses 10203 (20.4%)
	// L2 hits 477, misses 9726, forwards 462, memory fetches 9723
	//   cache-request   10203 packets, latency  22.18 cycles, 5.21 hops
	//   cache-reply     10203 packets, latency  27.68 cycles, 5.21 hops
	//   cache-forward     462 packets, latency  21.84 cycles, 5.33 hops
	//   mem-request      9723 packets, latency  12.29 cycles, 2.99 hops
	//   mem-reply        9723 packets, latency  38.09 cycles, 2.99 hops
	// max-APL 28.45, dev-APL 1.7206
}
