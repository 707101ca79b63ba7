package experiments

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"obm/internal/obs"
	"obm/internal/scenario"
)

// TestFanOutDeterministic pins the contract of the runners that fan
// their independent jobs out through sim.RunReplicas — the sim-backed
// ones, gap's per-config mapper runs and dynstream's schemes: the JSON
// of every one is byte-identical whether its jobs run one at a time or
// across four workers finishing in any order, and so are the
// deterministic counts the benchmark checks (mapper artifacts computed,
// stream remap attempts). Each setting starts from a cold artifact
// cache, so the mappers run at both.
func TestFanOutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fanned-out experiment twice; skip under -short")
	}
	ids := []string{"burst", "congestion", "tail", "fig11", "validate", "loadsweep", "gap", "dynstream"}
	counters := []string{"artifact.store.computed", "sched.stream.remap.attempts"}
	t.Cleanup(func() { scenario.ResetShared() })
	type outcome struct {
		json   []byte
		counts []uint64
	}
	run := func(procs int) map[string]outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		scenario.ResetShared()
		out := make(map[string]outcome, len(ids))
		for _, id := range ids {
			r, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			var o outcome
			for _, c := range counters {
				o.counts = append(o.counts, obs.Default().Counter(c).Value())
			}
			res, err := r.Run(context.Background(), quickOpts())
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", id, procs, err)
			}
			if o.json, err = res.JSON(); err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", id, procs, err)
			}
			for i, c := range counters {
				o.counts[i] = obs.Default().Counter(c).Value() - o.counts[i]
			}
			out[id] = o
		}
		return out
	}
	serial, parallel := run(1), run(4)
	for _, id := range ids {
		s, p := serial[id], parallel[id]
		if !bytes.Equal(s.json, p.json) {
			i := firstDiff(string(s.json), string(p.json))
			t.Errorf("%s: JSON differs between GOMAXPROCS=1 and 4 at byte %d", id, i)
		}
		for i, c := range counters {
			if s.counts[i] != p.counts[i] {
				t.Errorf("%s: %s delta %d at GOMAXPROCS=1, %d at 4", id, c, s.counts[i], p.counts[i])
			}
		}
	}
	if serial["dynstream"].counts[1] == 0 {
		t.Error("dynstream made no remap attempts; the count check shows nothing")
	}
}
