package mapping

import (
	"context"
	"fmt"
	"math"
	"testing"

	"obm/internal/core"
	"obm/internal/mesh"
	"obm/internal/stats"
)

// clusterSAFullResolve is the reference annealer ClusterSA.Map must
// match: the same moves and acceptance rule, but every candidate is
// scored by re-solving SAM for every application into a fresh mapping.
func clusterSAFullResolve(c ClusterSA, p *core.Problem) (core.Mapping, error) {
	iters := c.Iters
	if iters <= 0 {
		iters = 2000
	}
	clusterTiles, owner, err := c.clusters(p)
	if err != nil {
		return nil, err
	}
	objv := core.ObjectiveOrDefault(c.Objective)
	num := make([]float64, p.NumApps())
	evaluate := func() (core.Mapping, float64, error) {
		m := make(core.Mapping, p.N())
		tilesOf := make([][]mesh.Tile, p.NumApps())
		for ci, a := range owner {
			tilesOf[a] = append(tilesOf[a], clusterTiles[ci]...)
		}
		for i := range num {
			num[i] = 0
			if len(tilesOf[i]) == 0 {
				continue
			}
			lo, hi := p.AppThreads(i)
			assign, cost, err := p.SolveSAM(lo, hi, tilesOf[i])
			if err != nil {
				return nil, 0, err
			}
			copy(m[lo:hi], assign)
			num[i] = cost
		}
		return m, objv.Value(p, num), nil
	}

	rng := stats.NewRand(c.Seed)
	bestM, bestObj, err := evaluate()
	if err != nil {
		return nil, err
	}
	curObj := bestObj
	temp := 0.05 * bestObj
	cooling := math.Exp(math.Log(1e-3) / float64(iters))
	for it := 0; it < iters; it++ {
		a := rng.Intn(len(owner))
		b := rng.Intn(len(owner))
		if owner[a] == owner[b] {
			temp *= cooling
			continue
		}
		owner[a], owner[b] = owner[b], owner[a]
		m, obj, err := evaluate()
		if err != nil {
			return nil, err
		}
		accept := obj <= curObj
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp((curObj-obj)/temp)
		}
		if accept {
			curObj = obj
			if obj < bestObj {
				bestObj = obj
				bestM = m
			}
		} else {
			owner[a], owner[b] = owner[b], owner[a]
		}
		temp *= cooling
	}
	return bestM, nil
}

// TestClusterSAMatchesFullResolve pins the incremental annealer to the
// full re-solve: re-solving only the two applications a swap touches
// must return the same mapping, tile for tile, under every objective.
func TestClusterSAMatchesFullResolve(t *testing.T) {
	objectives := []core.Objective{nil, core.DevAPL{}, core.Weighted{Max: 1, Dev: 2}}
	for _, cfg := range []string{"C1", "C4"} {
		p := paperProblem(t, cfg)
		for _, obj := range objectives {
			for _, seed := range []uint64{1, 2, 11} {
				c := ClusterSA{Seed: seed, Objective: obj}
				if testing.Short() {
					c.Iters = 300
				}
				t.Run(fmt.Sprintf("%s/%s/seed%d", cfg, c.Name(), seed), func(t *testing.T) {
					got, err := c.Map(context.Background(), p)
					if err != nil {
						t.Fatal(err)
					}
					want, err := clusterSAFullResolve(c, p)
					if err != nil {
						t.Fatal(err)
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("thread %d: tile %d, full re-solve gives %d", j, got[j], want[j])
						}
					}
				})
			}
		}
	}
}

// TestClusterSAAllocsFlat checks the annealing loop reuses its buffers:
// ten times the iterations must not cost more allocations.
func TestClusterSAAllocsFlat(t *testing.T) {
	p := paperProblem(t, "C4")
	allocs := func(iters int) float64 {
		c := ClusterSA{Seed: 3, Iters: iters}
		return testing.AllocsPerRun(3, func() {
			if _, err := c.Map(context.Background(), p); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(200), allocs(2000)
	if long > short {
		t.Errorf("allocations grow with Iters: %.0f at 200, %.0f at 2000", short, long)
	}
}
