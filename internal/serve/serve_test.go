package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	_ "repro/internal/engine" // register the architectures
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const gemmBody = `{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":16,"seed":1}`

// TestRepeatJobIsByteIdenticalCacheHit is the acceptance criterion: the
// second submission of an identical job comes back cached, byte-identical,
// and without re-running the kernel (the cold counter stays put).
func TestRepeatJobIsByteIdenticalCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})

	resp1, raw1 := postJob(t, ts, gemmBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", resp1.StatusCode, raw1)
	}
	var env1, env2 Envelope
	if err := json.Unmarshal(raw1, &env1); err != nil {
		t.Fatal(err)
	}
	if env1.Cached {
		t.Error("first submission claims to be cached")
	}

	// A different spelling of the same job (explicit batch=1, spaced op)
	// must land on the same key and hit.
	resp2, raw2 := postJob(t, ts,
		`{"op":" GEMM ","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":16,"seed":1,"batch":1}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm run: status %d: %s", resp2.StatusCode, raw2)
	}
	if err := json.Unmarshal(raw2, &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached {
		t.Error("identical job was not served from the cache")
	}
	if env2.Key != env1.Key {
		t.Errorf("keys differ across spellings: %s vs %s", env1.Key, env2.Key)
	}
	if !bytes.Equal(env1.Result, env2.Result) {
		t.Error("cached result is not byte-identical to the cold run")
	}

	st := s.Snapshot()
	if st.ColdRuns != 1 || st.WarmHits != 1 {
		t.Errorf("counters: cold=%d warm=%d, want 1/1", st.ColdRuns, st.WarmHits)
	}

	// A semantically different job (changed K) must miss.
	_, raw3 := postJob(t, ts, `{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":17,"seed":1}`)
	var env3 Envelope
	if err := json.Unmarshal(raw3, &env3); err != nil {
		t.Fatal(err)
	}
	if env3.Cached || env3.Key == env1.Key {
		t.Error("different shape reused the cached result")
	}
}

// TestProgressRunMatchesUntracedBytes pins the trace-scrubbing contract:
// a progress-streamed execution caches the same bytes as an untraced one,
// so either can serve the other's hits.
func TestProgressRunMatchesUntracedBytes(t *testing.T) {
	_, ts1 := newTestServer(t, Config{Workers: 1})
	_, ts2 := newTestServer(t, Config{Workers: 1})

	// Big enough K that at least one 4096-cycle progress sample fires.
	job := `{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":16,"n":16,"k":256,"seed":3`
	_, rawPlain := postJob(t, ts1, job+`}`)
	var plain Envelope
	if err := json.Unmarshal(rawPlain, &plain); err != nil {
		t.Fatal(err)
	}

	resp, rawStream := postJob(t, ts2, job+`,"progress":true}`)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("progress response Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(rawStream)), "\n")
	var final struct {
		Type string `json:"type"`
		Envelope
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("final line: %v\n%s", err, lines[len(lines)-1])
	}
	if final.Type != "result" {
		t.Fatalf("final line type %q", final.Type)
	}
	if final.Key != plain.Key {
		t.Errorf("progress run changed the key: %s vs %s", final.Key, plain.Key)
	}
	if !bytes.Equal(final.Result, plain.Result) {
		t.Errorf("progress run result differs from untraced run:\n%s\nvs\n%s", final.Result, plain.Result)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionControl floods a server whose single worker is blocked and
// checks overflow gets 429 with the rejected counter moving.
func TestAdmissionControl(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.run = func(ctx context.Context, j *Job, progress progressFn) (*Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &Result{Key: j.key, Op: j.spec.Op, Arch: j.spec.Arch}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Distinct jobs so none coalesce: capacity is 1 executing + 1 queued.
	job := func(k int) string {
		return fmt.Sprintf(`{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":%d,"seed":1}`, k)
	}
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJob(t, ts, job(i))
			codes <- resp.StatusCode
		}(i)
	}
	// Wait until both admission tokens are actually held before overflowing.
	waitFor(t, "both admission slots to fill", func() bool { return len(s.admit) == 2 })

	resp, body := postJob(t, ts, job(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow got %d (%s), want 429", resp.StatusCode, body)
	}
	if s.Snapshot().Rejected == 0 {
		t.Error("rejected counter did not move")
	}
	close(release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("admitted job got %d", code)
		}
	}
}

// TestCoalescing submits the same job concurrently while the first is
// stalled: the followers must share the leader's single execution.
func TestCoalescing(t *testing.T) {
	s, err := New(Config{Workers: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var runCount int
	var mu sync.Mutex
	s.run = func(ctx context.Context, j *Job, progress progressFn) (*Result, error) {
		mu.Lock()
		runCount++
		mu.Unlock()
		<-release
		return &Result{Key: j.key, Op: j.spec.Op, Arch: j.spec.Arch}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	results := make(chan Envelope, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, raw := postJob(t, ts, gemmBody)
			var env Envelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Error(err)
				return
			}
			results <- env
		}()
	}
	// Let every request reach the coalescing point, then release.
	waitFor(t, "3 coalesced followers", func() bool { return s.Snapshot().Coalesced == 3 })
	close(release)
	wg.Wait()

	mu.Lock()
	if runCount != 1 {
		t.Errorf("identical concurrent jobs executed %d times, want 1", runCount)
	}
	mu.Unlock()
	cached := 0
	for i := 0; i < 4; i++ {
		if env := <-results; env.Cached {
			cached++
		}
	}
	if cached != 3 {
		t.Errorf("%d of 4 responses were marked cached, want 3 coalesced followers", cached)
	}
}

// TestBadRequests pins the 400 surface: junk op, missing dims, unknown
// fields, unknown arch and over-limit batch all fail fast with an error
// body instead of reaching the simulator.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"unknown op":    `{"op":"matmul","m":8,"n":8,"k":8}`,
		"no dims":       `{"op":"gemm","arch":"maeri"}`,
		"unknown field": `{"op":"gemm","m":8,"n":8,"k":8,"bogus":1}`,
		"unknown arch":  `{"op":"gemm","arch":"nope","m":8,"n":8,"k":8}`,
		"batch limit":   `{"op":"gemm","arch":"maeri","m":8,"n":8,"k":8,"batch":999999}`,
		"bad sparsity":  `{"op":"spmm","arch":"sigma","m":8,"n":8,"k":8,"sparsity":1.5}`,
		"bad policy":    `{"op":"spmm","arch":"sigma","m":8,"n":8,"k":8,"policy":"FIFO"}`,
		"conv no shape": `{"op":"conv","arch":"maeri"}`,
		"bad model":     `{"op":"model","arch":"maeri","model":"ZZZ"}`,
	} {
		resp, raw := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, raw)
			continue
		}
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: no error body: %s", name, raw)
		}
	}
}

// TestBatchJob runs a small batch and checks one run per seed comes back.
func TestBatchJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, BatchWorkers: 2})
	_, raw := postJob(t, ts,
		`{"op":"gemm","arch":"maeri","ms":16,"bw":16,"m":8,"n":8,"k":16,"seed":5,"batch":3}`)
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 || len(res.Seeds) != 3 || len(res.OutputSums) != 3 {
		t.Fatalf("batch result has %d runs / %d seeds / %d sums, want 3 each",
			len(res.Runs), len(res.Seeds), len(res.OutputSums))
	}
	if res.Seeds[0] != 5 || res.Seeds[2] != 7 {
		t.Errorf("seeds %v, want 5..7", res.Seeds)
	}
	if res.TotalCycles == 0 {
		t.Error("batch reports zero total cycles")
	}
}

// TestModelChipJob runs a tiny multi-core model job end to end.
func TestModelChipJob(t *testing.T) {
	if testing.Short() {
		t.Skip("model simulation in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, raw := postJob(t, ts,
		`{"op":"model","arch":"maeri","ms":64,"bw":16,"model":"A","scale":32,"seed":1,"chip":{"cores":2,"streams":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Chip == nil || res.Chip.Cores != 2 {
		t.Fatalf("chip result missing: %s", env.Result)
	}
	if len(res.OutputSums) != 2 {
		t.Errorf("%d output sums, want one per stream", len(res.OutputSums))
	}
	if res.TotalCycles != res.Chip.MakespanCycles {
		t.Errorf("total cycles %d != makespan %d", res.TotalCycles, res.Chip.MakespanCycles)
	}
}

// TestStatsAndAuxEndpoints smoke-checks /stats, /archs, /healthz and
// /progress.
func TestStatsAndAuxEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	postJob(t, ts, gemmBody)
	postJob(t, ts, gemmBody)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ColdRuns != 1 || st.WarmHits != 1 || st.Cache.Entries != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.ColdLatency.Count != 1 || st.WarmLatency.Count != 1 {
		t.Errorf("latency counts: cold=%d warm=%d", st.ColdLatency.Count, st.WarmLatency.Count)
	}

	resp, err = http.Get(ts.URL + "/archs")
	if err != nil {
		t.Fatal(err)
	}
	var archs []archInfo
	if err := json.NewDecoder(resp.Body).Decode(&archs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(archs) < 4 {
		t.Errorf("/archs lists %d architectures", len(archs))
	}

	for _, path := range []string{"/healthz", "/progress"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestLatencyRingClampsSize pins the divide-by-zero fix: a ring sized <= 0
// must clamp instead of panicking in add on `% cap`.
func TestLatencyRingClampsSize(t *testing.T) {
	for _, size := range []int{-4, 0, 1} {
		l := newLatencyRing(size)
		l.add(3 * time.Millisecond)
		l.add(5 * time.Millisecond)
		s := l.stats()
		if s.Count != 2 {
			t.Errorf("size %d: count %d, want 2", size, s.Count)
		}
		// Window capacity is clamped to 1: the retained sample is the last.
		if got := time.Duration(s.P99Ms * float64(time.Millisecond)); got != 5*time.Millisecond {
			t.Errorf("size %d: p99 %v, want 5ms", size, got)
		}
	}
}

// TestLatencyRingNearestRankTail pins the percentile regression at the
// server's ring: 50 samples 1..50ms must report p99 = 50ms (the max, by
// nearest rank), not 49ms (the truncating index the old code used).
func TestLatencyRingNearestRankTail(t *testing.T) {
	l := newLatencyRing(64)
	for i := 1; i <= 50; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	s := l.stats()
	asDur := func(msv float64) time.Duration { return time.Duration(msv * float64(time.Millisecond)) }
	if got := asDur(s.P99Ms); got != 50*time.Millisecond {
		t.Errorf("p99 = %v, want 50ms (nearest rank includes the tail)", got)
	}
	if got := asDur(s.P50Ms); got != 25*time.Millisecond {
		t.Errorf("p50 = %v, want 25ms", got)
	}
	if got := asDur(s.P90Ms); got != 45*time.Millisecond {
		t.Errorf("p90 = %v, want 45ms", got)
	}
}

// TestEnvelopeTimingSplit checks the queue-wait vs simulate-time split on
// the wire: a cold run reports a positive sim_ms, a warm hit reports 0/0.
func TestEnvelopeTimingSplit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, raw1 := postJob(t, ts, gemmBody)
	var cold Envelope
	if err := json.Unmarshal(raw1, &cold); err != nil {
		t.Fatal(err)
	}
	if !(cold.SimMs > 0) {
		t.Errorf("cold run sim_ms = %g, want > 0", cold.SimMs)
	}
	_, raw2 := postJob(t, ts, gemmBody)
	var warm Envelope
	if err := json.Unmarshal(raw2, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.SimMs > 0 || warm.QueueMs > 0 {
		t.Errorf("warm hit reports timing %g/%g, want 0/0", warm.QueueMs, warm.SimMs)
	}
}

// TestModelPolicyKeys pins the model-policy key: SIGMA schedules a model's
// sparse layers with the job's policy, so NS, RDM and LFF are three jobs,
// and a cached NS result is never served to an LFF request.
func TestModelPolicyKeys(t *testing.T) {
	const base = `{"op":"model","arch":"sigma","ms":64,"bw":64,"model":"S","scale":16,"seed":1`
	keys := map[string]string{}
	for _, pol := range []string{"NS", "RDM", "LFF"} {
		var req Request
		if err := json.Unmarshal([]byte(base+`,"policy":"`+pol+`"}`), &req); err != nil {
			t.Fatal(err)
		}
		j, err := Resolve(req)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if prev, dup := keys[string(j.Key())]; dup {
			t.Errorf("policy %s shares its key with %s", pol, prev)
		}
		keys[string(j.Key())] = pol
	}
	if testing.Short() {
		t.Skip("model simulation in -short mode")
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	var results [2]Result
	for i, body := range []string{base + `,"policy":"NS"}`, base + `,"policy":"lff"}`} {
		resp, raw := postJob(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var env Envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		if env.Cached {
			t.Fatalf("%s was served from the cache", body)
		}
		if err := json.Unmarshal(env.Result, &results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if results[0].TotalCycles == results[1].TotalCycles {
		t.Errorf("NS and LFF model runs both take %d cycles; the policy did not reach the run",
			results[0].TotalCycles)
	}
}
