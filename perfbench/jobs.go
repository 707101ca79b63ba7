package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"obm/internal/obs"
	"obm/internal/scenario"
	"obm/internal/service"
	"obm/internal/stats"
)

// jobKinds are the small analytic requests the daemon workload mixes;
// no flit-level experiment is among them.
var jobKinds = [][]string{{"table1"}, {"table4"}, {"fig9", "fig10"}, {"pareto"}, {"objective"}}

const (
	// roundLen jobs make one round of jobs-mixed: every kind once with a
	// pool seed (read path) and once with a fresh seed (write path).
	roundLen = 2 * 5
	// epochRounds rounds make one epoch. Each epoch starts a fresh daemon
	// on a memory tier holding only the pool's artifacts, serves the same
	// epochJobs requests and stops it. Every epoch is thus the same work
	// from the same state, so no figure depends on how many epochs the
	// measured time holds, as it would if one daemon kept every job it
	// served (the Manager retains finished jobs for an hour, and each
	// status poll walks them all; the memory tier is unbounded).
	epochRounds = 30
	epochJobs   = epochRounds * roundLen
	// poolSeeds request seeds per workload seed have their artifacts
	// computed into the memory tier before each epoch.
	poolSeeds = 4
	// clients is the closed loop's client count: one per core on the
	// 2-core reference host.
	clients = 2
	// pollEvery spaces a client's status polls. Rule: at most a tenth of
	// the median service.run_ms (4.4 ms on the reference host), so a
	// job's latency is resolved to a tenth of its running time.
	pollEvery = 250 * time.Microsecond
)

// jobPlan returns job j's request (j < epochJobs; every epoch replays
// the same plan). Each round of roundLen jobs is a seed-shuffled
// permutation of the kinds × {pool, fresh}, so every round carries the
// same mix.
func jobPlan(seed uint64, j int) service.Request {
	round, slot := j/roundLen, j%roundLen
	rng := stats.NewRand(stats.SplitSeed(seed, round))
	k := rng.Perm(roundLen)[slot]
	req := service.Request{Experiments: jobKinds[k%len(jobKinds)], Quick: true}
	if k < len(jobKinds) {
		req.Seed = poolSeed(seed, rng.Intn(poolSeeds))
	} else {
		req.Seed = freshSeeds + seed<<20 + uint64(j)
	}
	return req
}

// Pool seeds start at 1<<32 and fresh seeds at freshSeeds, so the two
// never meet.
const freshSeeds = 1 << 40

func poolSeed(seed uint64, i int) uint64 { return 1<<32 + seed*poolSeeds + uint64(i) }

// jobRecord is one daemon job as its client saw it.
type jobRecord struct {
	epoch, j                   int
	req                        service.Request
	traced                     bool
	submit, done               time.Time
	code                       int // HTTP status of the submit
	created, started, finished time.Time
	polls                      int
	body                       []byte
	err                        error
}

// epochRecord is the obs and runtime change over one epoch's serving.
type epochRecord struct {
	obs      obsDelta
	rt0, rt1 goRuntime
}

func runJobs(ctx context.Context, r *run) error {
	if err := r.measureSetup(); err != nil {
		return err
	}
	var prof *cpuProfile
	if r.cfg.trace {
		prof = newCPUProfile()
	}
	refs := make(map[string][]byte)
	var (
		jobs   []jobRecord
		epochs []epochRecord
	)
	start := time.Now()
	for e := 0; e == 0 || time.Since(start) < r.cfg.seconds; e++ {
		if err := fillPool(ctx, r.cfg.seed, refs); err != nil {
			return err
		}
		d, err := startDaemon()
		if err != nil {
			return err
		}
		if prof != nil {
			if err := prof.start(); err != nil {
				d.stop(ctx)
				return err
			}
		}
		ep := epochRecord{rt0: readGoRuntime()}
		before := obs.Default().Snapshot()
		jobs = append(jobs, d.closedLoop(ctx, r, e)...)
		ep.obs = obsDelta{before, obs.Default().Snapshot()}
		ep.rt1 = readGoRuntime()
		epochs = append(epochs, ep)
		if prof != nil {
			if err := prof.stop(); err != nil {
				d.stop(ctx)
				return err
			}
		}
		if e == 0 {
			// Peak memory after a fixed amount of work: the first epoch.
			rss, err := peakRSSMB()
			if err != nil {
				d.stop(ctx)
				return err
			}
			r.set("max_rss_mb", rss, 1)
		}
		if err := d.stop(ctx); err != nil {
			return err
		}
	}
	if prof != nil {
		for name, pkg := range layerPackages {
			r.set(name, prof.share(pkg), int(prof.total/1e7))
		}
	}

	r.jobTimes(jobs)
	// Every epoch serves the same requests from the same state, so the
	// work each layer did in one epoch repeats; the last (warmest) one
	// gives the per-round counts, and artifact.computed must repeat.
	last := epochs[len(epochs)-1]
	r.setGoRuntime(last.rt0, last.rt1, epochRounds)
	r.setLayerCounts(last.obs, epochRounds)
	r.set("service.rejected", float64(last.obs.counter("service.jobs.rejected")), epochJobs)
	for name, counter := range countNames {
		if _, ok := r.values[name]; !ok {
			r.set(name, float64(last.obs.counter(counter))/epochRounds, epochRounds)
		}
	}
	first := epochs[0].obs.counter(countNames["artifact.computed"])
	for e, ep := range epochs {
		n := ep.obs.counter(countNames["artifact.computed"])
		r.counts["epoch-"+strconv.Itoa(e)] = map[string]uint64{"artifact.computed": n}
		if n != first {
			r.problem("artifact.computed: epoch 0 counted %d, epoch %d %d", first, e, n)
		}
	}

	if err := r.checkJobs(ctx, jobs, refs); err != nil {
		return err
	}
	if r.cfg.trace {
		return r.probeJobs(ctx)
	}
	return nil
}

// fillPool empties the shared memory tier and computes the pool
// requests' artifacts into it. The first fill's envelopes are the
// references for the pooled jobs.
func fillPool(ctx context.Context, seed uint64, refs map[string][]byte) error {
	scenario.ResetShared()
	for i := 0; i < poolSeeds; i++ {
		for _, kind := range jobKinds {
			req := service.Request{Experiments: kind, Quick: true, Seed: poolSeed(seed, i)}
			out, err := service.Execute(ctx, req, service.ExecConfig{})
			if err != nil {
				return fmt.Errorf("pre-filling %v: %w", req.Experiments, err)
			}
			if _, ok := refs[requestKey(req)]; !ok {
				refs[requestKey(req)] = out.Envelope
			}
		}
	}
	return nil
}

// requestKey identifies a request's output: its experiments and seed.
func requestKey(req service.Request) string { return fmt.Sprint(req.Experiments, req.Seed) }

// daemon is the code cmd/obmsimd runs, in process, with its defaults: a
// Manager (queue 64, concurrency 1) behind service.Handler on a loopback
// listener, and the process-wide memory-only artifact cache.
type daemon struct {
	m      *service.Manager
	srv    *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		m:      service.NewManager(service.Config{Queue: service.DefaultQueue, Concurrency: 1}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		served: make(chan struct{}),
	}
	d.srv = &http.Server{Handler: service.Handler(d.m, obs.Default())}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	if _, err := d.get(context.Background(), "/v1/experiments", nil); err != nil {
		d.stop(context.Background())
		return nil, fmt.Errorf("daemon not answering: %w", err)
	}
	return d, nil
}

// stop shuts the listener, waits for Serve to return and drains the
// Manager.
func (d *daemon) stop(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	return errors.Join(err, d.m.Drain(ctx))
}

// get fetches path and decodes a JSON body into v (v nil: the raw body is
// returned). Any status but 200 is an error.
func (d *daemon) get(ctx context.Context, path string, v any) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	if v != nil {
		return body, json.Unmarshal(body, v)
	}
	return body, nil
}

// jobStatus is the part of GET /v1/jobs/{id} a client reads.
type jobStatus struct {
	ID         string        `json:"id"`
	State      service.State `json:"state"`
	Error      string        `json:"error"`
	Created    time.Time     `json:"created"`
	Started    *time.Time    `json:"started"`
	Finished   *time.Time    `json:"finished"`
	NextCursor uint64        `json:"next_cursor"`
}

// closedLoop runs the clients through epoch e's epochJobs jobs. In a
// traced run, odd rounds are traced so the span-recording overhead is
// measured in the same process.
func (d *daemon) closedLoop(ctx context.Context, r *run, e int) []jobRecord {
	var (
		mu   sync.Mutex
		next int
		out  []jobRecord
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := next
				next++
				mu.Unlock()
				if j >= epochJobs {
					return
				}
				rec := jobRecord{epoch: e, j: j, req: jobPlan(r.cfg.seed, j), traced: r.cfg.trace && (j/roundLen)%2 == 1}
				tr := r.tr
				if !rec.traced {
					tr = nil
				}
				d.job(ctx, &rec, tr)
				mu.Lock()
				out = append(out, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// job submits one request, polls its status until it is terminal and
// fetches the result, recording each HTTP exchange as a span.
func (d *daemon) job(ctx context.Context, rec *jobRecord, tr *tracer) {
	runID := fmt.Sprintf("epoch-%d-job-%d", rec.epoch, rec.j)
	parent := tr.reserve("job", runID, 0)
	rec.submit = time.Now()
	defer func() {
		rec.done = time.Now()
		tr.finish(parent, rec.submit, rec.done)
	}()

	body, err := json.Marshal(rec.req)
	if err != nil {
		rec.err = err
		return
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(hreq)
	if err != nil {
		rec.err = err
		return
	}
	var st jobStatus
	rec.code = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.record("http.submit", runID, parent, rec.submit, time.Now())
	if err != nil || rec.code != http.StatusAccepted {
		rec.err = fmt.Errorf("submit: HTTP %d: %v %s", rec.code, err, st.Error)
		return
	}

	path := "/v1/jobs/" + st.ID + "?cursor="
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		t0 := time.Now()
		cursor := st.NextCursor
		if _, err := d.get(ctx, path+strconv.FormatUint(cursor, 10), &st); err != nil {
			rec.err = err
			return
		}
		if st.NextCursor < cursor {
			st.NextCursor = cursor
		}
		rec.polls++
		tr.record("http.poll", runID, parent, t0, time.Now())
	}
	rec.created = st.Created
	if st.Started != nil && st.Finished != nil {
		rec.started, rec.finished = *st.Started, *st.Finished
	}
	if st.State != service.StateDone {
		rec.err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		return
	}
	t0 := time.Now()
	rec.body, rec.err = d.get(ctx, "/v1/jobs/"+st.ID+"/result", nil)
	tr.record("http.result", runID, parent, t0, time.Now())
}

// jobTimes derives the end-to-end and service metrics from the job
// records.
func (r *run) jobTimes(jobs []jobRecord) {
	var lat, tracedRounds, rounds, queue, runMS, transport, polls, bytesOut []float64
	type interval struct{ lo, hi time.Time }
	span := func(m map[int]*interval, k int, j jobRecord) {
		s, ok := m[k]
		if !ok {
			m[k] = &interval{j.submit, j.done}
			return
		}
		if j.submit.Before(s.lo) {
			s.lo = j.submit
		}
		if j.done.After(s.hi) {
			s.hi = j.done
		}
	}
	byRound := make(map[int]*interval)
	byEpoch := make(map[int]*interval)
	tracedRound := make(map[int]bool)
	for _, j := range jobs {
		k := j.epoch*epochRounds + j.j/roundLen
		span(byRound, k, j)
		span(byEpoch, j.epoch, j)
		tracedRound[k] = j.traced
		if j.err != nil {
			continue
		}
		l := j.done.Sub(j.submit)
		lat = append(lat, l.Seconds()*1e3)
		server := j.finished.Sub(j.created)
		queue = append(queue, j.started.Sub(j.created).Seconds()*1e3)
		runMS = append(runMS, j.finished.Sub(j.started).Seconds()*1e3)
		transport = append(transport, (l-server).Seconds()*1e3)
		polls = append(polls, float64(j.polls))
		bytesOut = append(bytesOut, float64(len(j.body)))
	}
	for k, s := range byRound {
		if tracedRound[k] {
			tracedRounds = append(tracedRounds, s.hi.Sub(s.lo).Seconds())
		} else {
			rounds = append(rounds, s.hi.Sub(s.lo).Seconds())
		}
	}
	// Throughput is the median over epochs of the jobs each completed per
	// second, from its first submit to its last result.
	var perEpoch []float64
	for _, s := range byEpoch {
		perEpoch = append(perEpoch, epochJobs/s.hi.Sub(s.lo).Seconds())
	}
	wall := median(rounds)
	r.set("wall_s", wall, len(rounds))
	if len(tracedRounds) > 0 {
		r.set("trace.overhead_frac", median(tracedRounds)/wall-1, len(tracedRounds))
	}
	r.set("jobs_per_s", median(perEpoch), len(perEpoch))
	if len(lat) == 0 {
		return // every job failed; checkJobs reports them
	}
	r.set("job_p50_ms", median(lat), len(lat))
	if tailReportable(len(lat), 95) {
		r.set("job_p95_ms", percentile(lat, 95), len(lat))
	}
	r.set("service.queue_ms", median(queue), len(queue))
	r.set("service.run_ms", median(runMS), len(runMS))
	r.set("service.transport_ms", median(transport), len(transport))
	r.set("service.polls_per_job", stats.Mean(polls), len(polls))
	r.set("service.result_bytes", stats.Mean(bytesOut), len(bytesOut))
}

// checkJobs compares every job's result with an in-process Execute of the
// same request, computed outside the measured time: the CLI↔daemon
// parity contract. Fresh requests are recomputed from an empty memory
// cache, two at a time.
func (r *run) checkJobs(ctx context.Context, jobs []jobRecord, refs map[string][]byte) error {
	scenario.ResetShared()
	var fresh []service.Request
	for _, j := range jobs {
		if _, ok := refs[requestKey(j.req)]; !ok && j.err == nil {
			fresh = append(fresh, j.req)
			refs[requestKey(j.req)] = nil
		}
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		encode   []float64
	)
	work := make(chan service.Request)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range work {
				out, err := service.Execute(ctx, req, service.ExecConfig{})
				var enc time.Duration
				if err == nil {
					enc, err = encodeTime(out)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %v seed %d: %w", req.Experiments, req.Seed, err)
				}
				if err == nil {
					refs[requestKey(req)] = out.Envelope
					encode = append(encode, enc.Seconds()*1e3)
				}
				mu.Unlock()
			}
		}()
	}
	for _, req := range fresh {
		work <- req
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if len(encode) > 0 {
		r.set("experiments.encode_ms", median(encode), len(encode))
	}

	for _, j := range jobs {
		r.attempted++
		switch ref := refs[requestKey(j.req)]; {
		case j.err != nil:
			r.failed++
			r.problem("job %d: %v", j.j, j.err)
		case !bytes.Equal(j.body, ref):
			r.failed++
			r.problem("job %d (%v seed %d): result differs from in-process Execute", j.j, j.req.Experiments, j.req.Seed)
		}
	}
	return nil
}
