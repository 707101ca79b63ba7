package core

import (
	"fmt"

	"obm/internal/hungarian"
	"obm/internal/mesh"
)

// SolveSAM solves the Single Application Mapping problem of Section IV.A
// (Algorithm 1): given the flattened thread range [lo, hi) of one
// application and an equally-sized set of candidate tiles, it finds the
// assignment of threads to those tiles that minimizes the application's
// total packet latency (equivalently its APL, since the denominator is
// fixed).
//
// The returned slice assign has length hi-lo; assign[x] is the tile given
// to thread lo+x. The returned cost is the application's total packet
// latency (the APL numerator), i.e. sum of c_j*TC + m_j*TM over the
// application; divide by Problem.AppWeight to obtain the APL.
func (p *Problem) SolveSAM(lo, hi int, tiles []mesh.Tile) (assign []mesh.Tile, cost float64, err error) {
	var s SAMSolver
	s.p = p
	rowToCol, total, err := s.Solve(lo, hi, tiles)
	if err != nil {
		return nil, 0, err
	}
	assign = make([]mesh.Tile, len(tiles))
	for x, y := range rowToCol {
		assign[x] = tiles[y]
	}
	return assign, total, nil
}

// SAMSolver solves repeated SAM instances for one Problem, reusing the
// cost matrix and Hungarian scratch across solves — the per-call
// allocations of Problem.SolveSAMInto amortize to zero, which matters
// for mappers that SAM-polish on a hot path (sort-select-swap runs two
// solves per application per pass). Results are bit-identical to the
// Problem methods: the buffers are reused, the float operations and
// their order are not changed. Not safe for concurrent use; give each
// goroutine its own.
type SAMSolver struct {
	p     *Problem
	hs    hungarian.Solver
	costM [][]float64
	flat  []float64
	tiles []mesh.Tile
}

// NewSAMSolver returns a scratch-reusing SAM solver for p.
func (p *Problem) NewSAMSolver() *SAMSolver {
	return &SAMSolver{p: p}
}

// Solve runs Algorithm 1 for thread range [lo, hi) over tiles and
// returns the Hungarian row-to-column assignment — thread lo+x gets
// tiles[assign[x]]; the slice is owned by the solver and overwritten by
// the next call — and the total packet latency (the APL numerator). It
// is Problem.SolveSAM without the per-call allocations.
func (s *SAMSolver) Solve(lo, hi int, tiles []mesh.Tile) ([]int, float64, error) {
	p := s.p
	na := hi - lo
	if na <= 0 || lo < 0 || hi > p.N() {
		return nil, 0, fmt.Errorf("core: SAM thread range [%d,%d) invalid", lo, hi)
	}
	if len(tiles) != na {
		return nil, 0, fmt.Errorf("core: SAM got %d tiles for %d threads", len(tiles), na)
	}
	// Step 1 (Algorithm 1): build the cost matrix cost[j][k] (eq. 13).
	if cap(s.flat) < na*na {
		s.flat = make([]float64, na*na)
	}
	if cap(s.costM) < na {
		s.costM = make([][]float64, na)
	}
	flat := s.flat[:na*na]
	costM := s.costM[:na]
	for x := 0; x < na; x++ {
		row := flat[x*na : (x+1)*na]
		j := lo + x
		for y, t := range tiles {
			row[y] = p.ThreadCost(j, t)
		}
		costM[x] = row
	}
	// Step 2: Hungarian assignment.
	rowToCol, total, err := s.hs.Solve(costM)
	if err != nil {
		return nil, 0, fmt.Errorf("core: SAM: %w", err)
	}
	return rowToCol, total, nil
}

// SolveInto is Problem.SolveSAMInto with reused scratch: it solves SAM
// for application appIdx over tiles, writes the assignment into m, and
// returns the application's resulting APL.
func (s *SAMSolver) SolveInto(m Mapping, appIdx int, tiles []mesh.Tile) (float64, error) {
	p := s.p
	lo, hi := p.AppThreads(appIdx)
	rowToCol, cost, err := s.Solve(lo, hi, tiles)
	if err != nil {
		return 0, err
	}
	for x, y := range rowToCol {
		m[lo+x] = tiles[y]
	}
	if w := p.AppWeight(appIdx); w > 0 {
		return cost / w, nil
	}
	return 0, nil
}

// ReoptimizeApp is Problem.ReoptimizeApp with reused scratch.
func (s *SAMSolver) ReoptimizeApp(m Mapping, appIdx int) error {
	lo, hi := s.p.AppThreads(appIdx)
	if cap(s.tiles) < hi-lo {
		s.tiles = make([]mesh.Tile, hi-lo)
	}
	tiles := s.tiles[:hi-lo]
	for x := range tiles {
		tiles[x] = m[lo+x]
	}
	_, err := s.SolveInto(m, appIdx, tiles)
	return err
}

// SolveSAMInto solves SAM for application i and writes the resulting
// assignment into mapping m (which must have length N). It returns the
// application's resulting APL.
func (p *Problem) SolveSAMInto(m Mapping, appIdx int, tiles []mesh.Tile) (float64, error) {
	var s SAMSolver
	s.p = p
	return s.SolveInto(m, appIdx, tiles)
}

// ReoptimizeApp re-runs SAM for application i over the tiles it currently
// occupies in m, improving (never worsening) its APL in place. This is
// the final polish step of the sort-select-swap algorithm and is also
// used after sliding-window swaps.
func (p *Problem) ReoptimizeApp(m Mapping, appIdx int) error {
	var s SAMSolver
	s.p = p
	return s.ReoptimizeApp(m, appIdx)
}
