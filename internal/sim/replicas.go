package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"obm/internal/engine"
	"obm/internal/obs"
	"obm/internal/stats"
)

// Replica-runner metrics: completed/failed job counts and per-job busy
// time (the histogram's sum is total worker busy seconds; divide by
// wall time for utilization). Recording happens once per replica job —
// far off the simulator's per-cycle hot path.
var (
	mJobsCompleted = obs.Default().Counter("sim.replicas.jobs.completed")
	mJobsFailed    = obs.Default().Counter("sim.replicas.jobs.failed")
	mJobSeconds    = obs.Default().Timer("sim.replicas.job.seconds")
)

// runJob executes one replica job with metrics around it. A panicking
// job becomes that job's error (panic value and stack preserved) with a
// zero result: on a worker goroutine the panic would otherwise kill the
// process before any job-level recover above RunReplicas could see it,
// and the sibling jobs still finish into their slots.
func runJob[T any](ctx context.Context, i int, job func(ctx context.Context, i int) (T, error)) (v T, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, fmt.Errorf("sim: replica job %d panicked: %v\n%s", i, r, debug.Stack())
		}
		mJobSeconds.Since(start)
		if err != nil {
			mJobsFailed.Inc()
		} else {
			mJobsCompleted.Inc()
		}
	}()
	return job(ctx, i)
}

// RunReplicas runs n independent jobs across at most workers goroutines
// and returns their results in job-index order. workers <= 0 selects
// GOMAXPROCS. Each job must be self-contained (build its own Network;
// the simulator types are not safe for concurrent use) — sharding whole
// seeded replicas is the share-nothing decomposition that keeps the
// parallel run bit-identical to running the same jobs serially. Jobs
// that fail or panic contribute a zero result; the errors are joined.
// Jobs are dispatched in index order, so callers that know their costs
// can order the list longest first.
//
// Cancellation: when ctx is done, no further jobs are dispatched and
// each in-flight job sees the same ctx (jobs are expected to poll it
// and unwind promptly). Completed replicas are still returned in their
// slots; the joined error then includes the ctx.Err() so callers can
// distinguish a cancelled batch from job failures while keeping the
// partial results. Progress (replicas completed / n) is reported to
// the context's engine sink, if any; after cancellation the terminal
// event reports against the dispatched count — completed/dispatched,
// not k/n with k < n — so no sink is left believing undispatched work
// is still pending.
func RunReplicas[T any](ctx context.Context, n, workers int, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	rep := engine.StartStage(ctx, "replicas")
	out := make([]T, n)
	errs := make([]error, n, n+1)
	dispatched := n
	completed := 0
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				dispatched = i
				break
			}
			out[i], errs[i] = runJob(ctx, i, job)
			completed = i + 1
			rep.Report(completed, n)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		var done sync.Mutex // guards completed under the progress report
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i], errs[i] = runJob(ctx, i, job)
					done.Lock()
					completed++
					c := completed
					done.Unlock()
					rep.Report(c, n)
				}
			}()
		}
	dispatch:
		for i := 0; i < n; i++ {
			// select picks at random among ready cases, so check ctx
			// first: once it is done, no further job is dispatched even
			// when a worker is also ready.
			if ctx.Err() != nil {
				dispatched = i
				break
			}
			select {
			case idx <- i:
			case <-ctx.Done():
				dispatched = i
				break dispatch
			}
		}
		close(idx)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		// Every dispatched job has finished (workers drained the channel
		// before wg.Wait returned), so the terminal progress event is
		// completed/dispatched — a closed stage, not pending work.
		rep.Finish(completed, dispatched)
		errs = append(errs, fmt.Errorf("sim: replicas interrupted after dispatching %d/%d: %w", dispatched, n, err))
	} else {
		rep.Finish(n, n)
	}
	return out, errors.Join(errs...)
}

// ReplicaSeed derives the seed for replica rep from a base seed.
// Replica 0 uses the base seed unchanged, so a single-replica run
// reproduces the corresponding serial run exactly; later replicas get
// well-mixed distinct streams. It is stats.SplitSeed under its
// historical name — the derivation is shared with every other
// deterministic fan-out (Monte-Carlo chunks, annealing restarts).
func ReplicaSeed(base uint64, rep int) uint64 {
	return stats.SplitSeed(base, rep)
}
