package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Spans of one request share Req.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a root span
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer's origin
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span ID so children can name their parent before the
// parent ends. It returns 0 on a nil tracer.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.origin).Nanoseconds()) / 1e3,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span with a fresh ID and returns the ID.
func (t *tracer) add(parent, req int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.record(id, parent, req, name, start, end)
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfStat is the aggregated time of all spans sharing a name.
type selfStat struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by the union of its children's
// intervals; children that overlap each other (parallel work) or reach
// outside the parent are clipped, so self time is never negative.
func selfTimes(spans []span) map[string]selfStat {
	children := map[int64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]selfStat{}
	for _, s := range spans {
		dur := s.End - s.Start
		covered := unionWithin(children[s.ID], s.Start, s.End)
		st := out[s.Name]
		st.Count++
		st.TotalUs += dur
		st.SelfUs += dur - covered
		out[s.Name] = st
	}
	return out
}

// unionWithin returns the length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]float64, lo, hi float64) float64 {
	var clipped [][2]float64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, curA, curB := 0.0, 0.0, 0.0
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpanDump writes the spans and their per-name self times as JSON.
func writeSpanDump(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Self  map[string]selfStat `json:"self"`
		Spans []span              `json:"spans"`
	}{selfTimes(spans), spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
