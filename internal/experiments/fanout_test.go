package experiments

import (
	"bytes"
	"context"
	"runtime"
	"testing"
)

// TestSimFanOutDeterministic pins the contract of the sim-backed
// runners that fan their simulations out through sim.RunReplicas: the
// JSON of every one is byte-identical whether its jobs run one at a
// time or across four workers finishing in any order.
func TestSimFanOutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sim-backed experiment twice; skip under -short")
	}
	ids := []string{"burst", "congestion", "tail", "fig11", "validate", "loadsweep"}
	run := func(procs int) map[string][]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make(map[string][]byte, len(ids))
		for _, id := range ids {
			r, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(context.Background(), quickOpts())
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", id, procs, err)
			}
			if out[id], err = res.JSON(); err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", id, procs, err)
			}
		}
		return out
	}
	serial, parallel := run(1), run(4)
	for _, id := range ids {
		if !bytes.Equal(serial[id], parallel[id]) {
			i := firstDiff(string(serial[id]), string(parallel[id]))
			t.Errorf("%s: JSON differs between GOMAXPROCS=1 and 4 at byte %d", id, i)
		}
	}
}
