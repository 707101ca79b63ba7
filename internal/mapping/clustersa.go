package mapping

import (
	"context"
	"fmt"
	"math"
	"sort"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mesh"
	"obm/internal/stats"
)

// ClusterSA is a two-level annealer in the spirit of Lu, Xia & Jantsch
// (cluster-based simulated annealing, cited as [17] by the paper):
// tiles are grouped into contiguous clusters of the sorted-by-TC list,
// annealing swaps whole clusters between applications, and each
// application's threads are placed within its clusters by a Hungarian
// SAM solve. The coarse move space converges much faster than flat SA
// but cannot fine-tune individual tiles — exactly the gap SSS's
// sliding-window phase closes.
type ClusterSA struct {
	// ClusterSize is the number of tiles per cluster (default 4; must
	// divide N and each application's thread count for the default
	// partitioning).
	ClusterSize int
	// Iters is the number of proposed cluster swaps (default 2000).
	Iters int
	Seed  uint64
	// Objective selects the cost the cluster annealer minimizes; nil is
	// the paper's max-APL. The within-cluster SAM placement stays
	// objective-agnostic (per-app total cost is what every objective is
	// built from).
	Objective core.Objective
}

// Name implements Mapper.
func (c ClusterSA) Name() string {
	cs := c.ClusterSize
	if cs == 0 {
		cs = 4
	}
	return fmt.Sprintf("ClusterSA(%d)%s", cs, objName(c.Objective))
}

// Fingerprint implements Mapper, with defaults resolved so the zero
// value and explicit defaults share a key.
func (c ClusterSA) Fingerprint() string {
	cs := c.ClusterSize
	if cs <= 0 {
		cs = 4
	}
	iters := c.Iters
	if iters <= 0 {
		iters = 2000
	}
	return fmt.Sprintf("clustersa(cs=%d,iters=%d,seed=%d%s)", cs, iters, c.Seed, objFingerprint(c.Objective))
}

// Map implements Mapper. A cluster swap changes the tiles of exactly
// two applications, so each move re-solves SAM for those two only (two
// Hungarian solves) and scores the objective on the patched per-app
// numerators; every other application's inputs are unchanged, so the
// result is bit-identical to re-solving all of them. The loop polls
// cancellation each move.
func (c ClusterSA) Map(ctx context.Context, p *core.Problem) (core.Mapping, error) {
	iters := c.Iters
	if iters <= 0 {
		iters = 2000
	}
	clusterTiles, owner, err := c.clusters(p)
	if err != nil {
		return nil, err
	}
	n, numClusters := p.N(), len(clusterTiles)

	// solveApp SAM-solves application a over the clusters it owns into
	// m's thread range and returns its raw SAM total, the per-app APL
	// numerator every objective scores from. Tiles are collected in
	// cluster-index order, since tile order feeds the Hungarian solve.
	sam := p.NewSAMSolver()
	tiles := make([]mesh.Tile, 0, n)
	solveApp := func(m core.Mapping, a int) (float64, error) {
		tiles = tiles[:0]
		for ci, o := range owner {
			if o == a {
				tiles = append(tiles, clusterTiles[ci]...)
			}
		}
		if len(tiles) == 0 {
			return 0, nil
		}
		lo, hi := p.AppThreads(a)
		assign, cost, err := sam.Solve(lo, hi, tiles)
		if err != nil {
			return 0, err
		}
		for x, y := range assign {
			m[lo+x] = tiles[y]
		}
		return cost, nil
	}

	objv := core.ObjectiveOrDefault(c.Objective)
	cur, cand := make(core.Mapping, n), make(core.Mapping, n)
	curNum, candNum := make([]float64, p.NumApps()), make([]float64, p.NumApps())
	for a := range curNum {
		if curNum[a], err = solveApp(cur, a); err != nil {
			return nil, err
		}
	}
	curObj := objv.Value(p, curNum)
	bestM, bestObj := cur.Clone(), curObj

	rng := stats.NewRand(c.Seed)
	rep := engine.StartStage(ctx, c.Name())
	temp := 0.05 * bestObj
	cooling := math.Exp(math.Log(1e-3) / float64(iters))
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("clustersa: interrupted after %d/%d iterations: %w", it, iters, err)
		}
		rep.Report(it, iters)
		// Swap ownership of two clusters with different owners.
		a := rng.Intn(numClusters)
		b := rng.Intn(numClusters)
		oa, ob := owner[a], owner[b]
		if oa == ob {
			temp *= cooling
			continue
		}
		owner[a], owner[b] = ob, oa
		copy(candNum, curNum)
		for _, app := range [2]int{oa, ob} {
			if candNum[app], err = solveApp(cand, app); err != nil {
				return nil, err
			}
		}
		obj := objv.Value(p, candNum)
		accept := obj <= curObj
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp((curObj-obj)/temp)
		}
		if accept {
			for _, app := range [2]int{oa, ob} {
				lo, hi := p.AppThreads(app)
				copy(cur[lo:hi], cand[lo:hi])
			}
			curNum, candNum = candNum, curNum
			curObj = obj
			if obj < bestObj {
				bestObj = obj
				copy(bestM, cur)
			}
		} else {
			owner[a], owner[b] = oa, ob
		}
		temp *= cooling
	}
	rep.Finish(iters, iters)
	return bestM, nil
}

// clusters partitions p's tiles into clusters and deals them out to
// the applications: clusterTiles[ci] is cluster ci's tiles and
// owner[ci] the application that starts with it.
func (c ClusterSA) clusters(p *core.Problem) (clusterTiles [][]mesh.Tile, owner []int, err error) {
	cs := c.ClusterSize
	if cs <= 0 {
		cs = 4
	}
	n := p.N()
	if n%cs != 0 {
		return nil, nil, fmt.Errorf("clustersa: cluster size %d does not divide %d tiles", cs, n)
	}
	numClusters := n / cs
	// Each application needs a whole number of clusters.
	clustersPer := make([]int, p.NumApps())
	total := 0
	for i := 0; i < p.NumApps(); i++ {
		lo, hi := p.AppThreads(i)
		if (hi-lo)%cs != 0 {
			return nil, nil, fmt.Errorf("clustersa: app %d has %d threads, not a multiple of cluster size %d", i, hi-lo, cs)
		}
		clustersPer[i] = (hi - lo) / cs
		total += clustersPer[i]
	}
	if total != numClusters {
		return nil, nil, fmt.Errorf("clustersa: %d clusters for %d cluster slots", total, numClusters)
	}

	// Clusters are contiguous runs of the TC-sorted slot list, like the
	// section structure of SSS.
	sorted := make([]mesh.Tile, n)
	for i := range sorted {
		sorted[i] = mesh.Tile(i)
	}
	sort.SliceStable(sorted, func(a, b int) bool {
		ta, tb := p.TC(sorted[a]), p.TC(sorted[b])
		if ta != tb {
			return ta < tb
		}
		return sorted[a] < sorted[b]
	})
	clusterTiles = make([][]mesh.Tile, numClusters)
	for ci := range clusterTiles {
		clusterTiles[ci] = sorted[ci*cs : (ci+1)*cs]
	}

	// Initial assignment: round-robin through the sorted clusters so
	// every application gets a spread of latencies (the SSS "select"
	// intuition at cluster granularity).
	owner = make([]int, numClusters)
	remaining := append([]int(nil), clustersPer...)
	app := 0
	for ci := range owner {
		for remaining[app%len(remaining)] == 0 {
			app++
		}
		owner[ci] = app % len(remaining)
		remaining[app%len(remaining)]--
		app++
	}
	return clusterTiles, owner, nil
}
