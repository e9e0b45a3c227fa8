package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestDueTimeAccounting stalls the first request and checks that the ones
// due behind it, which wait in the generator for the only connection, are
// timed from when they were due, not from when they were sent.
func TestDueTimeAccounting(t *testing.T) {
	const stall = 60 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cached":true,"key":"k","queue_ms":0,"sim_ms":0,"result":{"x":1}}`))
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, 1)
	defer g.close()
	sched := []arrival{{0, 0}, {2 * time.Millisecond, 0}, {4 * time.Millisecond, 0}, {6 * time.Millisecond, 0}}
	outs := g.run([][]byte{[]byte(`{}`)}, sched, 0)
	stallMs := durMs(stall)
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("request %d: %v", i, o.Err)
		}
		if o.Sent < o.Due || o.Done < o.Sent {
			t.Errorf("request %d: due %v sent %v done %v out of order", i, o.Due, o.Sent, o.Done)
		}
		// Every request completes after the stalled one, so each waited
		// at least until stall past time zero.
		if lat, min := o.latencyMs(), stallMs-durMs(o.Due); lat < min {
			t.Errorf("request %d: latency %.2f ms, want at least %.2f ms", i, lat, min)
		}
	}
	for i := 1; i < len(outs); i++ {
		if late, min := outs[i].lateMs(), stallMs-durMs(outs[i].Due); late < min {
			t.Errorf("request %d sent %.2f ms late, want at least %.2f ms (it waited for the connection)", i, late, min)
		}
	}
	p := summarize(outs, 1000, 10)
	if p.Sent != len(sched) || p.Failed != 0 || p.Pass {
		t.Errorf("summary %+v: want 4 sent, 0 failed, and a miss of the 10 ms limit", p)
	}
}

func TestFailedRequestsAreMisses(t *testing.T) {
	outs := []outcome{
		{Due: 0, Sent: 0, Done: time.Millisecond, Status: 200},
		{Due: 0, Sent: 0, Done: time.Millisecond, Status: 429},
	}
	p := summarize(outs, 100, 50)
	if p.Failed != 1 || p.Pass || !math.IsInf(p.Tail.Value, 1) {
		t.Errorf("summary %+v: a refused request must fail the step with an infinite tail", p)
	}
}

func TestSLORate(t *testing.T) {
	step := func(rate, p99 float64) phase {
		return phase{Rate: rate, Pass: p99 <= 100, Tail: tail{Value: p99}}
	}
	// The limit is crossed halfway (in log space) between 4000 and 8000.
	got := sloRate([]phase{step(1000, 5), step(2000, 10), step(4000, 50), step(8000, 200)}, 100)
	if want := 4000 * math.Sqrt2; math.Abs(got-want) > 1e-6 {
		t.Errorf("slo %g, want %g", got, want)
	}
	// One stalled step below the knee does not end the search: the fit
	// pools it with its neighbours.
	got = sloRate([]phase{step(1000, 5), step(2000, 150), step(4000, 20), step(8000, 60), step(16000, 900)}, 100)
	if got <= 8000 || got >= 16000 {
		t.Errorf("slo %g with a stalled low step, want between 8000 and 16000", got)
	}
	// Failed requests make a step an outright miss.
	failed := step(8000, 60)
	failed.Failed = 1
	if got := sloRate([]phase{step(4000, 20), failed}, 100); got != 4000 {
		t.Errorf("slo %g with failures at 8000, want 4000", got)
	}
	// Every step meets the limit: the top of the ladder.
	if got := sloRate([]phase{step(1000, 5), step(2000, 6)}, 100); got != 2000 {
		t.Errorf("slo %g, want 2000", got)
	}
}

func TestIsotonic(t *testing.T) {
	got := isotonic([]float64{1, 3, 2, 4, math.Inf(1)})
	want := []float64{1, 2.5, 2.5, 4, math.Inf(1)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("isotonic = %v, want %v", got, want)
		}
	}
}
