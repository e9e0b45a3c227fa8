package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dnn"
	"repro/internal/jobkey"
)

// TraceFormatVersion is the arrival-trace format this build reads. The
// version is explicit in every trace file so a future incompatible change
// bumps it and old binaries refuse cleanly instead of misreading offsets.
const TraceFormatVersion = 1

// maxTraceRequests bounds one replay: traces are serving workloads, not
// denial-of-service vectors, and the replay engine keeps one outcome slot
// per request.
const maxTraceRequests = 100000

// Trace is a replayable arrival trace: a named set of requests, each with
// a job shape (including batch size) and an arrival offset from replay
// start. Requests can be listed explicitly or generated from scenario
// templates; generated arrivals are a pure function of the trace and the
// replay seed, so the same (trace, seed) pair always produces the same
// schedule — the determinism the replay reports rely on.
type Trace struct {
	Version   int             `json:"version"`
	Name      string          `json:"name"`
	Requests  []TraceRequest  `json:"requests,omitempty"`
	Scenarios []TraceScenario `json:"scenarios,omitempty"`
}

// TraceRequest is one explicit request in a trace.
type TraceRequest struct {
	// Scenario labels the request for per-scenario reporting; empty lands
	// in the "default" scenario.
	Scenario string `json:"scenario,omitempty"`
	// ArrivalMs is the offset from replay start at which the request fires.
	ArrivalMs float64 `json:"arrival_ms"`
	// Job is the request shape — the same fields as a POST /jobs body.
	Job Request `json:"job"`
}

// TraceScenario generates Count requests from a job template. Arrivals
// start at StartMs and advance either by the fixed IntervalMs or, when
// RateRPS is set instead, by exponential inter-arrival gaps (a Poisson
// process) drawn from the replay seed. SeedStep advances the job's data
// seed per generated request: 0 replays the identical job (warm traffic
// after the first), 1 makes every request a distinct cold job.
type TraceScenario struct {
	Name       string  `json:"name"`
	Job        Request `json:"job"`
	Count      int     `json:"count"`
	StartMs    float64 `json:"start_ms,omitempty"`
	IntervalMs float64 `json:"interval_ms,omitempty"`
	RateRPS    float64 `json:"rate_rps,omitempty"`
	SeedStep   uint64  `json:"seed_step,omitempty"`
}

// ScheduledRequest is one expanded, validated request of a replay: Index
// is its position in the arrival-sorted schedule (the order every
// deterministic report artifact uses); Key is the job's result-cache key,
// shared by every request for the same job.
type ScheduledRequest struct {
	Index    int
	Scenario string
	Arrival  time.Duration
	Job      Request
	Key      jobkey.Key
}

// ParseTrace decodes and validates a trace file.
func ParseTrace(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if t.Version != TraceFormatVersion {
		return nil, fmt.Errorf("trace %q: format version %d, this build reads %d",
			t.Name, t.Version, TraceFormatVersion)
	}
	total := len(t.Requests)
	for i, sc := range t.Scenarios {
		if sc.Name == "" {
			return nil, fmt.Errorf("trace %q: scenario %d has no name", t.Name, i)
		}
		if sc.Count < 1 {
			return nil, fmt.Errorf("trace %q: scenario %q count %d (want >= 1)", t.Name, sc.Name, sc.Count)
		}
		if sc.IntervalMs < 0 || sc.RateRPS < 0 || sc.StartMs < 0 {
			return nil, fmt.Errorf("trace %q: scenario %q has a negative timing field", t.Name, sc.Name)
		}
		if sc.IntervalMs > 0 && sc.RateRPS > 0 {
			return nil, fmt.Errorf("trace %q: scenario %q sets both interval_ms and rate_rps", t.Name, sc.Name)
		}
		total += sc.Count
	}
	for i, r := range t.Requests {
		if r.ArrivalMs < 0 || math.IsNaN(r.ArrivalMs) || math.IsInf(r.ArrivalMs, 0) {
			return nil, fmt.Errorf("trace %q: request %d arrival_ms %g", t.Name, i, r.ArrivalMs)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("trace %q: no requests", t.Name)
	}
	if total > maxTraceRequests {
		return nil, fmt.Errorf("trace %q: %d requests exceeds the limit %d", t.Name, total, maxTraceRequests)
	}
	return &t, nil
}

// Expand turns the trace into its arrival-sorted request schedule for one
// replay seed. Every job is resolved (so a malformed trace fails here,
// named, instead of as mid-replay 400s) and progress streaming is forced
// off — replay measures the result path, not the NDJSON side channel.
func (t *Trace) Expand(seed uint64) ([]ScheduledRequest, error) {
	var sched []ScheduledRequest
	add := func(scenario string, at time.Duration, job Request) error {
		job.Progress = false
		j, err := Resolve(job)
		if err != nil {
			return fmt.Errorf("trace %q: scenario %q: %w", t.Name, scenario, err)
		}
		if scenario == "" {
			scenario = "default"
		}
		sched = append(sched, ScheduledRequest{Scenario: scenario, Arrival: at, Job: job, Key: j.key})
		return nil
	}
	for _, r := range t.Requests {
		if err := add(r.Scenario, msDuration(r.ArrivalMs), r.Job); err != nil {
			return nil, err
		}
	}
	for si, sc := range t.Scenarios {
		// One independent generator per scenario, derived from the replay
		// seed and the scenario's position: reordering scenarios changes
		// the trace, same order + same seed replays identically.
		rng := dnn.NewRNG(seed + uint64(si)*0x9e3779b97f4a7c15)
		at := msDuration(sc.StartMs)
		for i := 0; i < sc.Count; i++ {
			job := sc.Job
			job.Seed += uint64(i) * sc.SeedStep
			if err := add(sc.Name, at, job); err != nil {
				return nil, err
			}
			switch {
			case sc.RateRPS > 0:
				gap := -math.Log(1-rng.Float64()) / sc.RateRPS // seconds
				at += time.Duration(gap * float64(time.Second))
			default:
				at += msDuration(sc.IntervalMs)
			}
		}
	}
	// Arrival order with a stable tie-break on declaration order; Index is
	// the schedule position and keys every deterministic report artifact.
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Arrival < sched[j].Arrival })
	for i := range sched {
		sched[i].Index = i
	}
	return sched, nil
}

func msDuration(msv float64) time.Duration {
	return time.Duration(msv * float64(time.Millisecond))
}
