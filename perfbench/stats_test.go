package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    int
		want float64
	}{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if r := rank(200, 95); r != 190 {
		t.Fatalf("rank(200, 95) = %d, want 190", r)
	}
	for _, c := range []struct {
		n    int
		want bool
	}{{0, false}, {10, false}, {199, false}, {200, true}, {1000, true}} {
		if got := tailReportable(c.n, 95); got != c.want {
			t.Errorf("tailReportable(%d, 95) = %v, want %v", c.n, got, c.want)
		}
	}
}

// jobsWithLatencies returns n completed jobs, in full rounds, whose
// latencies are 1..n ms.
func jobsWithLatencies(n int) []jobRecord {
	t0 := time.Unix(0, 0)
	jobs := make([]jobRecord, n)
	for i := range jobs {
		sub := t0.Add(time.Duration(i) * time.Second)
		done := sub.Add(time.Duration(i+1) * time.Millisecond)
		jobs[i] = jobRecord{j: i, submit: sub, done: done, created: sub, started: sub, finished: done}
	}
	return jobs
}

func TestJobP95ReportedOnlyWithEnoughSamples(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantP95 bool
	}{{190, false}, {200, true}} {
		r := &run{values: make(map[string]value)}
		r.jobTimes(jobsWithLatencies(c.n))
		if got := r.values["job_p50_ms"]; got.v != float64(c.n/2) || got.n != c.n {
			t.Errorf("n=%d: job_p50_ms = %+v, want %d ms over %d samples", c.n, got, c.n/2, c.n)
		}
		p95, ok := r.values["job_p95_ms"]
		if ok != c.wantP95 {
			t.Errorf("n=%d: job_p95_ms reported = %v, want %v", c.n, ok, c.wantP95)
		}
		if ok && p95.v != 190 {
			t.Errorf("n=%d: job_p95_ms = %v, want the 190th sample", c.n, p95.v)
		}
	}
}
