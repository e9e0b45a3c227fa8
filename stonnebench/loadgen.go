package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// arrival is one scheduled request: when it falls due, measured from the
// start of its phase, and which job body it sends.
type arrival struct {
	Due time.Duration
	Job int
}

// outcome is what the generator observed for one arrival. Times are
// offsets from the start of the phase.
type outcome struct {
	Job             int
	Due, Sent, Done time.Duration
	Status          int
	Err             error
	Env             serve.Envelope
}

// latencyMs is the request's latency measured from when it fell due, so
// time spent waiting in the generator behind a busy connection counts.
func (o *outcome) latencyMs() float64 { return durMs(o.Done - o.Due) }

// lateMs is how far behind schedule the request was sent.
func (o *outcome) lateMs() float64 { return durMs(o.Sent - o.Due) }

func (o *outcome) ok() bool { return o.Err == nil && o.Status == http.StatusOK }

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loadgen sends a precomputed open-loop schedule to one URL over a fixed
// number of connections. Each connection is a sender that takes the next
// due arrival, waits for its due time if it is early, and sends it;
// arrivals that fall due while every connection is busy wait in the
// generator, and that wait is part of their latency.
type loadgen struct {
	url     string
	clients []*http.Client
	tr      *tracer
	// check runs on the sender's goroutine after a response is read and
	// its Done time stamped; it must be safe for concurrent use.
	check func(o *outcome)
}

func newLoadgen(url string, conns int) *loadgen {
	g := &loadgen{url: url}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

// close drops the generator's idle connections.
func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends every arrival and returns once all responses are in. A
// dispatcher releases each arrival at its due time to whichever sender is
// free; arrivals released while every sender is busy queue in order.
// reqBase offsets the span request IDs so phases of one run do not
// collide.
func (g *loadgen) run(bodies [][]byte, sched []arrival, reqBase int64) []outcome {
	out := make([]outcome, len(sched))
	// Sized to the number of sends, so the dispatcher never blocks.
	ready := make(chan int, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range g.clients {
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			for i := range ready {
				g.sendOne(cl, start, i, sched[i], bodies[sched[i].Job], &out[i], reqBase)
			}
		}(cl)
	}
	p := newPacer()
	for i, a := range sched {
		p.sleepUntil(start.Add(a.Due))
		ready <- i
	}
	close(ready)
	p.close()
	wg.Wait()
	return out
}

// sendOne sends arrival i and fills its outcome.
func (g *loadgen) sendOne(cl *http.Client, start time.Time, i int, a arrival, body []byte, o *outcome, reqBase int64) {
	o.Job, o.Due = a.Job, a.Due
	sent := time.Now()
	o.Sent = sent.Sub(start)
	o.Status, o.Err = g.send(cl, body, &o.Env)
	done := time.Now()
	o.Done = done.Sub(start)
	if g.tr != nil {
		req := reqBase + int64(i) + 1
		root := g.tr.newID()
		g.tr.add(root, req, "loadgen.wait", start.Add(a.Due), sent)
		g.tr.add(root, req, "http.roundtrip", sent, done)
		g.tr.record(root, 0, req, "request", start.Add(a.Due), done)
	}
	if g.check != nil {
		g.check(o)
	}
	o.Env.Result = nil // checked; keep memory flat across long phases
}

// send posts one job and decodes a 200 response's envelope.
func (g *loadgen) send(cl *http.Client, body []byte, env *serve.Envelope) (int, error) {
	resp, err := cl.Post(g.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, env); err != nil {
		return resp.StatusCode, fmt.Errorf("decode envelope: %w", err)
	}
	return resp.StatusCode, nil
}

// poissonSchedule draws arrivals at the given mean rate over dur, each
// picking a job with pick. The same rng state gives the same schedule.
func poissonSchedule(rng *splitmix, rate float64, dur time.Duration, pick func() int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.exp() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, arrival{Due: d, Job: pick()})
	}
}

// minWindow is the sample count of one latency window: enough for a p99
// with minBeyond samples beyond it.
const minWindow = 100 * minBeyond

// phase summarises one schedule's outcomes. Failed and refused requests
// count as misses: their latency is +Inf. The outcomes are cut, in due
// order, into windows of at least minWindow samples; P50Ms and P99Ms are
// the medians of the per-window figures, so one stall of the host moves
// one window, not the phase.
type phase struct {
	Rate    float64 `json:"rate_rps"`
	Sent    int     `json:"sent"`
	Failed  int     `json:"failed"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	Windows []tail  `json:"windows"` // per-window p99 with its sample accounting
	// Tail is the p99 over the whole phase: unlike the window median it
	// grows with a backlog that builds up during the phase.
	Tail tail `json:"tail_ms"`
	// LateTail is how late the generator sent requests, over the phase.
	LateTail tail `json:"late_ms"`
	// Backlog is set when the generator fell further behind toward the
	// end of the schedule: the last quarter's median lateness exceeded
	// the latency limit.
	Backlog bool `json:"backlog"`
	Pass    bool `json:"pass"`
}

// MarshalJSON writes non-finite latencies as null.
func (p phase) MarshalJSON() ([]byte, error) {
	type plain phase
	return json.Marshal(struct {
		plain
		P50Ms any `json:"p50_ms"`
		P99Ms any `json:"p99_ms"`
	}{plain(p), finite(p.P50Ms), finite(p.P99Ms)})
}

func summarize(outs []outcome, rate, limitMs float64) phase {
	p := phase{Rate: rate, Sent: len(outs)}
	late := make([]float64, 0, len(outs))
	lat := make([]float64, 0, len(outs))
	for i := range outs {
		o := &outs[i]
		late = append(late, o.lateMs())
		if !o.ok() {
			p.Failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, o.latencyMs())
	}
	var p50s, p99s []float64
	k := max(1, len(lat)/minWindow)
	for w := 0; w < k; w++ {
		win := sorted(lat[w*len(lat)/k : (w+1)*len(lat)/k])
		t := tailOf(win, 0.99)
		p.Windows = append(p.Windows, t)
		p50s = append(p50s, nearestRank(win, 0.5))
		p99s = append(p99s, t.Value)
	}
	p.P50Ms, p.P99Ms = median(p50s), median(p99s)
	p.Tail = tailOf(sorted(lat), 0.99)
	p.LateTail = tailOf(sorted(late), 0.99)
	if q := len(outs) / 4; q > 0 {
		p.Backlog = median(late[len(late)-q:]) > limitMs
	}
	p.Pass = !p.Backlog && p.Failed == 0 && p.Tail.Value <= limitMs
	return p
}

// sloRate is the highest offered rate at which the p99 latency meets the
// limit. Steps are in increasing rate order. The per-step log p99 (over
// the whole step, so a backlog building up shows) is first
// fitted non-decreasing in rate (pool-adjacent-violators), so one step
// that a host stall pushed over the limit does not end the search; a step
// that failed requests counts as infinitely late, one that built a growing
// backlog as at least just over the limit. The rate is interpolated log-linearly where the fit crosses the
// limit, so it does not jump by a whole ladder step on noise.
func sloRate(steps []phase, limitMs float64) float64 {
	if len(steps) == 0 {
		return math.NaN()
	}
	y := make([]float64, len(steps))
	for i, s := range steps {
		y[i] = math.Log(s.Tail.Value)
		switch {
		case s.Failed > 0:
			y[i] = math.Inf(1)
		case s.Backlog:
			// A growing backlog misses even when the tail has not caught
			// up with it yet.
			y[i] = math.Max(y[i], math.Log(limitMs)+1e-9)
		}
	}
	fit := isotonic(y)
	lim := math.Log(limitMs)
	if fit[0] > lim {
		// Even the lowest rate missed: scale it by how far it missed.
		if math.IsInf(fit[0], 1) {
			return steps[0].Rate / 2
		}
		return steps[0].Rate * math.Exp(lim-fit[0])
	}
	for i := 1; i < len(steps); i++ {
		if fit[i] <= lim {
			continue
		}
		lo, hi := math.Log(steps[i-1].Rate), math.Log(steps[i].Rate)
		frac := 0.0
		if !math.IsInf(fit[i], 1) {
			frac = (lim - fit[i-1]) / (fit[i] - fit[i-1])
		}
		return math.Exp(lo + frac*(hi-lo))
	}
	return steps[len(steps)-1].Rate
}

// isotonic returns the least-squares non-decreasing fit of y by pooling
// adjacent violators. +Inf values pool to +Inf.
func isotonic(y []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var bs []block
	for _, v := range y {
		bs = append(bs, block{v, 1})
		for len(bs) > 1 {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			bs = append(bs[:len(bs)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(y))
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}
