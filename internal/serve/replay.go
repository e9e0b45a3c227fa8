package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/jobkey"
	"repro/internal/stats"
)

// Replayer drives an arrival trace against a stonned /jobs endpoint: each
// scheduled request fires at its (speed-compressed) arrival offset,
// open-loop — a slow server does not slow the arrival process, it grows
// the queue, exactly like production traffic. The one exception keeps
// replays deterministic: a request whose job is still in flight from an
// earlier request is handed to the server only once that request has
// answered, so the earliest request of a job always pays its cold run and
// the repeats are served from the cache — otherwise goroutine dispatch
// order would decide which scenario runs cold. The hold counts toward the
// repeat's latency. The resulting report splits
// client-observed latency into the server's queue-wait and simulate-time
// components and digests every result body in schedule order, so two
// replays of the same trace are comparable byte-for-byte.
type Replayer struct {
	// Client issues the requests; nil uses http.DefaultClient. Use
	// InProcClient to replay against an in-process handler without
	// sockets.
	Client *http.Client
	// Base is the server base URL ("http://host:port").
	Base string
	// Speed compresses arrival offsets: an offset of t fires at t/Speed.
	// <= 0 replays in real time (1x).
	Speed float64
	// Timeout bounds one request; <= 0 uses 2 minutes.
	Timeout time.Duration
}

// ReplayReport is the outcome of one replay. Latency percentiles cover
// successful requests only — rejected (429) and failed requests are
// counted alongside, never mixed into the distribution. Digest is the
// SHA-256 over every request's outcome marker and result bytes in
// schedule order: with a deterministic simulator it is a pure function of
// (trace, seed) whenever every request completes, which is what the
// replay-determinism and persistence smokes compare across runs and
// process restarts.
type ReplayReport struct {
	Trace      string  `json:"trace"`
	Seed       uint64  `json:"seed"`
	Speed      float64 `json:"speed"`
	DurationMs float64 `json:"duration_ms"`

	Requests  int     `json:"requests"`
	Completed int     `json:"completed"`
	Warm      int     `json:"warm"`
	Cold      int     `json:"cold"`
	Rejected  int     `json:"rejected"`
	Failed    int     `json:"failed"`
	WarmRate  float64 `json:"warm_rate"`

	Latency   stats.LatencySummary `json:"latency"`
	QueueWait stats.LatencySummary `json:"queue_wait"`
	SimTime   stats.LatencySummary `json:"sim_time"`

	Digest    string           `json:"digest"`
	Scenarios []ScenarioReport `json:"scenarios"`
}

// ScenarioReport is one scenario's slice of the replay, same conventions
// as the top-level report.
type ScenarioReport struct {
	Name      string  `json:"name"`
	Requests  int     `json:"requests"`
	Completed int     `json:"completed"`
	Warm      int     `json:"warm"`
	Cold      int     `json:"cold"`
	Rejected  int     `json:"rejected"`
	Failed    int     `json:"failed"`
	WarmRate  float64 `json:"warm_rate"`

	Latency   stats.LatencySummary `json:"latency"`
	QueueWait stats.LatencySummary `json:"queue_wait"`
	SimTime   stats.LatencySummary `json:"sim_time"`

	Digest string `json:"digest"`
}

// outcome is one request's observed result.
type outcome struct {
	scenario string
	status   int // 0 = transport failure
	cached   bool
	latency  time.Duration
	queueMs  float64
	simMs    float64
	result   []byte
}

// Replay expands the trace with seed and runs it to completion (or ctx
// cancellation, which is an error: a partial replay has no meaningful
// report).
func (r *Replayer) Replay(ctx context.Context, tr *Trace, seed uint64) (*ReplayReport, error) {
	sched, err := tr.Expand(seed)
	if err != nil {
		return nil, err
	}
	client := r.Client
	if client == nil {
		client = http.DefaultClient
	}
	speed := r.Speed
	if speed <= 0 {
		speed = 1
	}
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}

	outs := make([]outcome, len(sched))
	// latest maps a job key to the completion of its most recently fired
	// request; the next request for that key waits on it.
	latest := make(map[jobkey.Key]chan struct{})
	start := time.Now()
	var wg sync.WaitGroup
	for _, sr := range sched {
		fireAt := start.Add(time.Duration(float64(sr.Arrival) / speed))
		if wait := time.Until(fireAt); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				wg.Wait()
				return nil, ctx.Err()
			}
		}
		after := latest[sr.Key]
		done := make(chan struct{})
		latest[sr.Key] = done
		wg.Add(1)
		go func(sr ScheduledRequest) {
			defer wg.Done()
			defer close(done)
			outs[sr.Index] = r.one(ctx, client, timeout, sr, after)
		}(sr)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return buildReport(tr, seed, speed, time.Since(start), outs), nil
}

// one issues a single scheduled request, once after (the previous request
// for the same job, nil if none) has answered, and records its outcome.
func (r *Replayer) one(ctx context.Context, client *http.Client, timeout time.Duration, sr ScheduledRequest, after <-chan struct{}) outcome {
	out := outcome{scenario: sr.Scenario}
	began := time.Now()
	if after != nil {
		select {
		case <-after:
		case <-ctx.Done():
			out.latency = time.Since(began)
			return out
		}
	}
	body, err := json.Marshal(sr.Job)
	if err != nil {
		return out
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, r.Base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		out.latency = time.Since(began)
		return out
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.latency = time.Since(began)
	if err != nil {
		return out
	}
	out.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		return out
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		out.status = 0 // malformed body counts as a failure
		return out
	}
	out.cached = env.Cached
	out.queueMs = env.QueueMs
	out.simMs = env.SimMs
	out.result = env.Result
	return out
}

// tally accumulates outcomes for one report scope.
type tally struct {
	requests, warm, cold, rejected, failed int
	latency, queue, sim                    []time.Duration
}

func newTally() *tally { return &tally{} }

func (t *tally) add(idx int, o outcome) {
	t.requests++
	switch {
	case o.status == http.StatusOK:
		if o.cached {
			t.warm++
		} else {
			t.cold++
		}
		t.latency = append(t.latency, o.latency)
		t.queue = append(t.queue, msDuration(o.queueMs))
		t.sim = append(t.sim, msDuration(o.simMs))
	case o.status == http.StatusTooManyRequests:
		t.rejected++
	default:
		t.failed++
	}
}

// digestOutcomes hashes the outcome markers and result bytes of the given
// schedule indices in order.
func digestOutcomes(outs []outcome, indices []int) string {
	h := sha256.New()
	for _, i := range indices {
		o := outs[i]
		switch {
		case o.status == http.StatusOK:
			fmt.Fprintf(h, "%d:ok:", i)
			h.Write(o.result)
		case o.status == http.StatusTooManyRequests:
			fmt.Fprintf(h, "%d:rejected", i)
		default:
			fmt.Fprintf(h, "%d:failed", i)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (t *tally) fill(req *int, completed *int, warm, cold, rejected, failed *int, rate *float64,
	lat, queue, sim *stats.LatencySummary) {
	*req = t.requests
	*completed = t.warm + t.cold
	*warm, *cold, *rejected, *failed = t.warm, t.cold, t.rejected, t.failed
	if done := t.warm + t.cold; done > 0 {
		*rate = float64(t.warm) / float64(done)
	}
	*lat = stats.SummarizeLatencies(t.latency)
	*queue = stats.SummarizeLatencies(t.queue)
	*sim = stats.SummarizeLatencies(t.sim)
}

func buildReport(tr *Trace, seed uint64, speed float64, wall time.Duration, outs []outcome) *ReplayReport {
	total := newTally()
	perScenario := map[string]*tally{}
	perIndices := map[string][]int{}
	for i, o := range outs {
		total.add(i, o)
		sc := perScenario[o.scenario]
		if sc == nil {
			sc = newTally()
			perScenario[o.scenario] = sc
		}
		sc.add(i, o)
		perIndices[o.scenario] = append(perIndices[o.scenario], i)
	}
	rep := &ReplayReport{
		Trace:      tr.Name,
		Seed:       seed,
		Speed:      speed,
		DurationMs: float64(wall) / float64(time.Millisecond),
		Digest:     digestOutcomes(outs, seqIndices(len(outs))),
	}
	total.fill(&rep.Requests, &rep.Completed, &rep.Warm, &rep.Cold, &rep.Rejected, &rep.Failed,
		&rep.WarmRate, &rep.Latency, &rep.QueueWait, &rep.SimTime)
	names := make([]string, 0, len(perScenario))
	for name := range perScenario {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := perScenario[name]
		s := ScenarioReport{Name: name, Digest: digestOutcomes(outs, perIndices[name])}
		sc.fill(&s.Requests, &s.Completed, &s.Warm, &s.Cold, &s.Rejected, &s.Failed,
			&s.WarmRate, &s.Latency, &s.QueueWait, &s.SimTime)
		rep.Scenarios = append(rep.Scenarios, s)
	}
	return rep
}

func seqIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// handlerTransport serves HTTP requests by invoking a handler directly —
// the full request path (admission, coalescing, cache) without a socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// InProcClient returns an http.Client whose requests are served by h
// in-process. Use with a Replayer Base of any syntactically valid URL.
func InProcClient(h http.Handler) *http.Client {
	return &http.Client{Transport: handlerTransport{h: h}}
}

// replayRequest is the POST /replay body: an inline trace plus replay
// knobs.
type replayRequest struct {
	Trace     json.RawMessage `json:"trace"`
	Seed      uint64          `json:"seed"`
	Speed     float64         `json:"speed"`
	TimeoutMs float64         `json:"timeout_ms"`
}

// handleReplay replays an inline trace against this server's own /jobs
// endpoint (in-process, through the full admission/coalescing/cache path)
// and returns the report. Latency here excludes client networking — it is
// the server-side serving distribution.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"POST a replay request"})
		return
	}
	var req replayRequest
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	if len(req.Trace) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"replay request has no trace"})
		return
	}
	tr, err := ParseTrace(req.Trace)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	rep := &Replayer{
		Client:  InProcClient(s.Handler()),
		Base:    "http://stonned.replay",
		Speed:   req.Speed,
		Timeout: msDuration(req.TimeoutMs),
	}
	report, err := rep.Replay(r.Context(), tr, req.Seed)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, report)
}
