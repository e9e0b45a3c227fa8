package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/jobkey"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// serveParams fixes one serving workload: the server's sizing, the
// latency limit the SLO rate is judged against, the base rate its
// latencies are reported at, and the rate ladder.
type serveParams struct {
	name    string
	limitMs float64 // p99 latency limit for slo_rps, fixed here
	baseRPS float64
	ladder  []float64
	batch   int // requests per closed-loop batch
	cfg     serve.Config
	// Job population: the first setSize jobs are the hot set (serve-warm)
	// or the working set (serve-churn), requested during set-up.
	setSize int
	// serve-churn only: Zipf exponent over the working set, share of
	// arrivals that are never-seen jobs, and share of those that get an
	// identical twin arriving 0.2-2 ms later.
	zipfS, newShare, twinShare float64
}

var (
	warmParams = serveParams{
		name: "serve-warm", limitMs: 30, baseRPS: 4000,
		ladder:  []float64{4000, 7000, 9500, 11500, 13500, 15500, 18000, 21000},
		batch:   2000,
		cfg:     serve.Config{QueueDepth: 1024, CacheEntries: 256},
		setSize: 64,
	}
	churnParams = serveParams{
		name: "serve-churn", limitMs: 150, baseRPS: 400,
		ladder:  []float64{500, 750, 900, 1000, 1100, 1200, 1300, 1450, 1650},
		batch:   400,
		cfg:     serve.Config{QueueDepth: 1024, CacheEntries: 32, DiskEntries: 128},
		setSize: 128, zipfS: 1.1, newShare: 0.05, twinShare: 0.3,
	}
)

func runServeWarm(cfg runConfig, rep *report) error  { return runServe(cfg, rep, warmParams) }
func runServeChurn(cfg runConfig, rep *report) error { return runServe(cfg, rep, churnParams) }

// serveJob is one generated POST /jobs body.
type serveJob struct {
	class string
	req   serve.Request
	body  []byte
}

// serveClasses are the job classes every serving workload draws from, in
// equal shares.
var serveClasses = []string{"gemm-maeri", "gemm-sigma", "gemm-tpu", "spmm-sigma", "conv-maeri"}

// drawServeJob draws a small job of the given class (an index into
// serveClasses): each simulates cold in a few milliseconds.
func drawServeJob(r *splitmix, class int) serveJob {
	dims := []int{32, 36, 40}
	j := serveJob{class: serveClasses[class]}
	switch j.class {
	case "gemm-maeri":
		j.req = serve.Request{Op: "gemm", Arch: "maeri", MS: 64, BW: 16}
	case "gemm-sigma":
		j.req = serve.Request{Op: "gemm", Arch: "sigma", MS: 64, BW: 64}
	case "gemm-tpu":
		j.req = serve.Request{Op: "gemm", Arch: "tpu", MS: 64}
	case "spmm-sigma":
		j.req = serve.Request{Op: "spmm", Arch: "sigma", MS: 64, BW: 64,
			Sparsity: 0.5 + 0.4*r.float64(), Policy: pick(r, []string{"NS", "RDM", "LFF"})}
	default:
		j.req = serve.Request{Op: "conv", Arch: "maeri", MS: 64, BW: 16, Conv: &tensor.ConvShape{
			R: 3, S: 3, C: pick(r, []int{4, 6}), G: 1, K: pick(r, []int{4, 6}), N: 1, X: 8, Y: 8, Stride: 1,
		}}
	}
	if j.req.Op != "conv" {
		j.req.M, j.req.N, j.req.K = pick(r, dims), pick(r, dims), pick(r, dims)
	}
	j.req.Seed = r.next() >> 1
	b, err := json.Marshal(j.req)
	if err != nil {
		panic(err) // a Request always marshals
	}
	j.body = b
	return j
}

// jobkeyFor builds the job's content-address material the way a server
// resolves a preset request, for timing jobkey.Job.Hash on its own.
func jobkeyFor(req serve.Request) (jobkey.Job, error) {
	bw := req.BW
	if bw <= 0 {
		bw = 16 // the server's default for a preset without a bandwidth
	}
	hw, err := sim.PresetHW(req.Arch, req.MS, bw)
	if err != nil {
		return jobkey.Job{}, err
	}
	hw.Preloaded = true
	arch, err := sim.Resolve(hw)
	if err != nil {
		return jobkey.Job{}, err
	}
	jk := jobkey.Job{
		Arch: arch.Name,
		Contract: jobkey.Contract{
			ExactSum: arch.Contract.ExactSum, RelTol: arch.Contract.RelTol,
			PostActivationConv: arch.Contract.PostActivationConv,
		},
		HW: hw, Op: req.Op, M: req.M, N: req.N, K: req.K,
		Sparsity: req.Sparsity, Policy: req.Policy, Seed: req.Seed, Batch: req.Batch,
	}
	if req.Conv != nil {
		jk.Conv = *req.Conv
	}
	return jk, nil
}

// rig is one in-process stonned listening on a loopback port.
type rig struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startRig(cfg serve.Config) (*rig, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String() + "/jobs", done: make(chan struct{})}
	go func() {
		defer close(r.done)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return r, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (r *rig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.hs.Shutdown(ctx)
	<-r.done
}

// verifier checks every 200 response's result bytes. Within the run each
// job's responses must be byte-identical to the first one seen and carry
// the same key; after the run every first-seen body is compared with a
// reference computed cold by a separate server with no cache.
type verifier struct {
	mu    sync.Mutex
	first map[int][]byte     // guarded by mu
	keys  map[int]jobkey.Key // guarded by mu
	fails []string           // guarded by mu
}

func newVerifier() *verifier {
	return &verifier{first: map[int][]byte{}, keys: map[int]jobkey.Key{}}
}

// observe checks one outcome; safe for concurrent use.
func (v *verifier) observe(o *outcome) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !o.ok() {
		v.fails = append(v.fails, fmt.Sprintf("job %d: %v", o.Job, o.Err))
		return
	}
	b, seen := v.first[o.Job]
	if !seen {
		v.first[o.Job] = append([]byte(nil), o.Env.Result...)
		v.keys[o.Job] = o.Env.Key
		return
	}
	if !bytes.Equal(b, o.Env.Result) {
		v.fails = append(v.fails, fmt.Sprintf("job %d: result bytes differ from the first response", o.Job))
	}
	if v.keys[o.Job] != o.Env.Key {
		v.fails = append(v.fails, fmt.Sprintf("job %d: key %s, earlier %s", o.Job, o.Env.Key, v.keys[o.Job]))
	}
}

// checkReferences compares every first-seen body with the reference a
// fresh cache-less server computes for the same request.
func (v *verifier) checkReferences(jobs []serveJob) error {
	client, err := referenceClient()
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	ids := make([]int, 0, len(v.first))
	for id := range v.first {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		want, err := postOnce(client, "http://ref/jobs", jobs[id].body)
		if err != nil {
			return fmt.Errorf("reference for job %d: %w", id, err)
		}
		if !bytes.Equal(want.Result, v.first[id]) {
			v.fails = append(v.fails, fmt.Sprintf("job %d: result bytes differ from the reference", id))
		}
	}
	return nil
}

// referenceClient returns a client served in-process by a fresh server
// with no cache entries of its own.
func referenceClient() (*http.Client, error) {
	ref, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	return serve.InProcClient(ref.Handler()), nil
}

// postOnce sends one job and decodes its envelope.
func postOnce(c *http.Client, url string, body []byte) (serve.Envelope, error) {
	var env serve.Envelope
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return env, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return env, err
	}
	if resp.StatusCode != http.StatusOK {
		return env, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return env, json.Unmarshal(raw, &env)
}

// serveSetup is one set-up of a serving workload.
type serveSetup struct {
	rig *rig
	dir string
}

// coldCosts collects the set-up's cold simulations over every set-up of a
// run: each job's simulated cycles and the process CPU seconds of each of
// its cold runs.
type coldCosts struct {
	cycles map[int]uint64
	cpu    map[int][]float64
}

func newColdCosts() *coldCosts {
	return &coldCosts{cycles: map[int]uint64{}, cpu: map[int][]float64{}}
}

// rate is the geometric mean over job classes of simulated cycles per CPU
// second, each job at the median of its runs' CPU time, so one burst of
// host contention moves one sample, not the figure.
func (c *coldCosts) rate(jobs []serveJob) float64 {
	cycles, secs := map[string]float64{}, map[string]float64{}
	for id, cpu := range c.cpu {
		cls := jobs[id].class
		cycles[cls] += float64(c.cycles[id])
		secs[cls] += median(cpu)
	}
	var rates []float64
	for _, cls := range serveClasses {
		if secs[cls] > 0 {
			rates = append(rates, cycles[cls]/secs[cls])
		}
	}
	return geomean(rates)
}

// setUp starts a server and requests the hot or working set once, over
// one connection, so those jobs are cached (and, with a disk tier, the
// disk is filled to its bound).
func setUp(p serveParams, jobs []serveJob, scratch string, v *verifier, costs *coldCosts, rep *report) (*serveSetup, error) {
	s := &serveSetup{}
	cfg := p.cfg
	if cfg.DiskEntries > 0 {
		dir, err := os.MkdirTemp(scratch, p.name+"-cache-")
		if err != nil {
			return nil, err
		}
		s.dir, cfg.CacheDir = dir, dir
	}
	var err error
	if s.rig, err = startRig(cfg); err != nil {
		if s.dir != "" {
			os.RemoveAll(s.dir)
		}
		return nil, err
	}
	g := newLoadgen(s.rig.url, 1)
	defer g.close()
	// Least popular first: the most popular jobs are the most recently
	// written, as they would be in a long-running server.
	sched := make([]arrival, p.setSize)
	for i := range sched {
		sched[i] = arrival{Job: p.setSize - 1 - i}
	}
	var decodeErr error
	// One connection: requests run one at a time and check runs on a
	// single goroutine, in order, so the process CPU time between two
	// responses is the cost of the second request. CPU time, unlike wall
	// time, does not count what the host's other tenants steal.
	cpu := processCPU()
	g.check = func(o *outcome) {
		now := processCPU()
		spent := now - cpu
		cpu = now
		rep.attempted++
		v.observe(o)
		if !o.ok() || o.Env.Cached {
			return
		}
		var res serve.Result
		if err := json.Unmarshal(o.Env.Result, &res); err != nil {
			decodeErr = fmt.Errorf("set-up result: %w", err)
			return
		}
		if want, ok := costs.cycles[o.Job]; ok && want != res.TotalCycles {
			rep.fail("%s job %d: sim_cycles %d, earlier set-up %d", p.name, o.Job, res.TotalCycles, want)
		}
		costs.cycles[o.Job] = res.TotalCycles
		costs.cpu[o.Job] = append(costs.cpu[o.Job], spent)
	}
	g.run(bodiesOf(jobs), sched, 0)
	if decodeErr != nil {
		s.close()
		return nil, decodeErr
	}
	return s, nil
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func (s *serveSetup) close() {
	s.rig.stop()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func bodiesOf(jobs []serveJob) [][]byte {
	out := make([][]byte, len(jobs))
	for i, j := range jobs {
		out[i] = j.body
	}
	return out
}

// picker draws which job each request sends. serve-warm draws uniformly
// from the hot set; serve-churn draws Zipf ranks over the working set, and
// a newShare of draws are never-seen jobs appended to jobs.
func picker(p serveParams, r *splitmix, jobs *[]serveJob) func() int {
	if p.zipfS == 0 {
		return func() int { return r.intn(p.setSize) }
	}
	z := newZipf(p.setSize, p.zipfS)
	return func() int {
		if r.float64() >= p.newShare {
			return z.draw(r)
		}
		*jobs = append(*jobs, drawServeJob(r, len(*jobs)%len(serveClasses)))
		return len(*jobs) - 1
	}
}

// twin reports whether a never-seen job gets an identical twin request.
func twin(p serveParams, r *splitmix, job int) bool {
	return job >= p.setSize && r.float64() < p.twinShare
}

// schedule draws one open-loop phase: Poisson arrivals at rate over dur,
// each never-seen job's twin arriving 0.2-2 ms after it.
func schedule(p serveParams, r *splitmix, rate float64, dur time.Duration, jobs *[]serveJob) []arrival {
	sched := poissonSchedule(r, rate, dur, picker(p, r, jobs))
	for _, a := range sched {
		if twin(p, r, a.Job) {
			gap := time.Duration((0.2 + 1.8*r.float64()) * float64(time.Millisecond))
			sched = append(sched, arrival{Due: a.Due + gap, Job: a.Job})
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Due < sched[j].Due })
	return sched
}

// closedBatch draws n requests that are all due at once, so every
// connection sends back to back; a twin directly follows its original.
func closedBatch(p serveParams, r *splitmix, pick func() int, n int) []arrival {
	var out []arrival
	for len(out) < n {
		j := pick()
		out = append(out, arrival{Job: j})
		if twin(p, r, j) {
			out = append(out, arrival{Job: j})
		}
	}
	return out
}

func runServe(cfg runConfig, rep *report, p serveParams) error {
	p.cfg.Workers = cfg.workers
	scratch := filepath.Dir(cfg.outDir)
	v := newVerifier()
	var setups []float64
	var su *serveSetup
	var jobs []serveJob
	var phases [][]arrival
	costs := newColdCosts()
	for i := 0; i < setupRepeats; i++ {
		t0 := processStart
		if i > 0 {
			su.close()
			t0 = time.Now()
		}
		jobs, phases = serveInputs(cfg, p)
		var err error
		if su, err = setUp(p, jobs, scratch, v, costs, rep); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer su.close()
	rep.e2e["setup_s"] = median(setups)
	rep.record["setup_s_samples"] = setups
	rep.e2e["sim_cycles_per_s"] = costs.rate(jobs)
	rep.record["latency_limit_ms"] = p.limitMs
	rep.record["base_rps"] = p.baseRPS

	g := newLoadgen(su.rig.url, cfg.workers)
	defer g.close()
	g.check = v.observe
	if !cfg.traced {
		// Closed loop: batches of requests all due at once, sent back to
		// back over every connection until the budget is spent.
		r := newRNG(cfg.seed, p.name+"/closed")
		pick := picker(p, r, &jobs)
		var rates []float64
		start := time.Now()
		for k := 0; time.Since(start).Seconds() < cfg.seconds; k++ {
			batch := closedBatch(p, r, pick, p.batch)
			outs := g.run(bodiesOf(jobs), batch, int64(k)<<32)
			rep.attempted += len(outs)
			var end time.Duration
			for i := range outs {
				end = max(end, outs[i].Done)
			}
			rates = append(rates, float64(len(outs))/end.Seconds())
		}
		rep.timedEnd()
		rep.e2e["throughput_rps"] = median(rates)
		rep.record["batch_rps"] = rates
	} else {
		bodies := bodiesOf(jobs)
		var steps []phase
		for k, rate := range p.ladder {
			outs := g.run(bodies, phases[2+k], int64(k+2)<<32)
			rep.attempted += len(outs)
			st := summarize(outs, rate, p.limitMs)
			steps = append(steps, st)
			if k > 0 && !st.Pass && !steps[k-1].Pass {
				break // two misses in a row: past the knee
			}
		}
		rep.layer["slo_rps"] = sloRate(steps, p.limitMs)
		rep.record["ladder"] = steps

		base := g.run(bodies, phases[0], 0)
		rep.attempted += len(base)
		bs := summarize(base, p.baseRPS, p.limitMs)
		rep.record["base"] = bs
		rep.layer["req_p50_ms"] = bs.P50Ms
		rep.layer["req_p99_ms"] = bs.P99Ms
		rep.layer["loadgen.sent"] = float64(bs.Sent)
		rep.layer["loadgen.late_ms_p99"] = bs.LateTail.Value

		tr := newTracer()
		g.tr = tr
		before := su.rig.srv.Snapshot()
		traced := g.run(bodies, phases[1], 1<<40)
		after := su.rig.srv.Snapshot()
		rep.attempted += len(traced)
		ts := summarize(traced, p.baseRPS, p.limitMs)
		rep.record["traced"] = ts
		serveLayers(rep, traced, before, after)
		rep.layer["trace.overhead_pct"] = (ts.P50Ms/bs.P50Ms - 1) * 100
		if err := replayTiers(p, jobs, phases[1], v, scratch, tr, rep); err != nil {
			return err
		}
		if err := dumpSpans(cfg, p.name, tr); err != nil {
			return err
		}
	}

	// Output checks, outside every timed span.
	if err := v.checkReferences(jobs); err != nil {
		return err
	}
	v.mu.Lock()
	for _, f := range v.fails {
		rep.fail("%s %s", p.name, f)
	}
	v.mu.Unlock()
	return runTableV(rep, nil)
}

// serveInputs generates the job set and, for a traced run, every open-loop
// phase's arrival schedule from the seed: the base-rate phase measured
// untraced, the same rate traced, then one phase per ladder step. Each
// base phase gets a quarter of the budget and the ladder the other half.
// An untraced run draws its closed-loop batches as it goes.
func serveInputs(cfg runConfig, p serveParams) ([]serveJob, [][]arrival) {
	r := newRNG(cfg.seed, p.name+"/jobs")
	var jobs []serveJob
	for k := 0; k < p.setSize; k++ {
		jobs = append(jobs, drawServeJob(r, k%len(serveClasses)))
	}
	if !cfg.traced {
		return jobs, nil
	}
	var phases [][]arrival
	d := time.Duration(cfg.seconds / 4 * float64(time.Second))
	for _, name := range []string{"base", "traced"} {
		phases = append(phases, schedule(p, newRNG(cfg.seed, p.name+"/"+name), p.baseRPS, d, &jobs))
	}
	d = time.Duration(cfg.seconds / 2 / float64(len(p.ladder)) * float64(time.Second))
	for k, rate := range p.ladder {
		phases = append(phases, schedule(p, newRNG(cfg.seed, fmt.Sprintf("%s/step%d", p.name, k)), rate, d, &jobs))
	}
	return jobs, phases
}

// serveLayers fills the server-side per-layer metrics from the traced
// phase's envelopes and the server's counters around it.
func serveLayers(rep *report, outs []outcome, before, after serve.Stats) {
	var queue, simT, over []float64
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			continue
		}
		queue = append(queue, o.Env.QueueMs)
		if o.Env.SimMs > 0 {
			simT = append(simT, o.Env.SimMs)
		}
		over = append(over, durMs(o.Done-o.Sent)-o.Env.QueueMs-o.Env.SimMs)
	}
	for name, xs := range map[string][]float64{"queue": queue, "sim": simT, "overhead": over} {
		s := sorted(xs)
		if len(s) == 0 {
			continue
		}
		rep.layer["serve."+name+"_ms_p50"] = nearestRank(s, 0.5)
		rep.layer["serve."+name+"_ms_p99"] = tailOf(s, 0.99).Value
	}
	d := func(a, b uint64) float64 { return float64(b - a) }
	warm := d(before.WarmHits, after.WarmHits)
	total := warm + d(before.ColdRuns, after.ColdRuns) + d(before.Coalesced, after.Coalesced) +
		d(before.Rejected, after.Rejected) + d(before.Failed, after.Failed)
	if total > 0 {
		rep.layer["serve.warm_ratio"] = warm / total
	}
	rep.layer["serve.cold_runs"] = d(before.ColdRuns, after.ColdRuns)
	rep.layer["serve.coalesced"] = d(before.Coalesced, after.Coalesced)
	rep.layer["serve.rejected"] = d(before.Rejected, after.Rejected)
	rep.layer["serve.failed"] = d(before.Failed, after.Failed)
	bc, ac := before.Cache, after.Cache
	if lookups := d(bc.Hits, ac.Hits) + d(bc.Misses, ac.Misses); lookups > 0 {
		rep.layer["cache.hit_ratio"] = d(bc.Hits, ac.Hits) / lookups
	}
	rep.layer["cache.evictions"] = d(bc.Evictions, ac.Evictions)
	if bc.Disk != nil && ac.Disk != nil {
		rep.layer["disk.hits"] = d(bc.Disk.Hits, ac.Disk.Hits)
		rep.layer["disk.writes"] = d(bc.Disk.Writes, ac.Disk.Writes)
		rep.layer["disk.evictions"] = d(bc.Disk.Evictions, ac.Disk.Evictions)
		rep.layer["disk.corrupt"] = d(bc.Disk.Corrupt, ac.Disk.Corrupt)
	}
}

// replayTiers replays the traced phase's key and body stream against a
// standalone memory cache (and, for serve-churn, a standalone disk store
// composed the way the server composes them) and times each call, plus
// jobkey.Job.Hash for every request.
func replayTiers(p serveParams, jobs []serveJob, sched []arrival, v *verifier, scratch string, tr *tracer, rep *report) error {
	v.mu.Lock()
	keys, bodies := v.keys, v.first
	v.mu.Unlock()
	cache := serve.NewCache(p.cfg.CacheEntries)
	var disk *serve.DiskStore
	if p.cfg.DiskEntries > 0 {
		dir, err := os.MkdirTemp(scratch, p.name+"-replay-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if disk, err = serve.NewDiskStore(dir, p.cfg.DiskEntries); err != nil {
			return err
		}
	}
	for i := 0; i < p.setSize; i++ {
		cache.Put(keys[i], bodies[i])
		if disk != nil {
			disk.Save(keys[i], bodies[i])
		}
	}
	jks := map[int]jobkey.Job{}
	var get, put, load, save, hash []float64
	matched, hashed := 0, 0
	us := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e3 }
	for i, a := range sched {
		req := int64(i) + 1
		jk, ok := jks[a.Job]
		if !ok {
			var err error
			if jk, err = jobkeyFor(jobs[a.Job].req); err != nil {
				return err
			}
			jks[a.Job] = jk
		}
		t0 := time.Now()
		k, err := jk.Hash()
		t1 := time.Now()
		tr.add(0, req, "jobkey.Hash", t0, t1)
		if err != nil {
			return err
		}
		hash = append(hash, us(t0, t1))
		hashed++
		if k == keys[a.Job] {
			matched++
		}
		key, body := keys[a.Job], bodies[a.Job]
		if body == nil {
			continue // never answered 200; already counted as a failure
		}
		t0 = time.Now()
		_, hit := cache.Get(key)
		t1 = time.Now()
		tr.add(0, req, "cache.Get", t0, t1)
		get = append(get, us(t0, t1))
		if hit {
			continue
		}
		if disk != nil {
			t0 = time.Now()
			_, hit = disk.Load(key)
			t1 = time.Now()
			tr.add(0, req, "disk.Load", t0, t1)
			load = append(load, us(t0, t1))
			if !hit {
				t0 = time.Now()
				disk.Save(key, body)
				t1 = time.Now()
				tr.add(0, req, "disk.Save", t0, t1)
				save = append(save, us(t0, t1))
			}
		}
		t0 = time.Now()
		cache.Put(key, body)
		t1 = time.Now()
		tr.add(0, req, "cache.Put", t0, t1)
		put = append(put, us(t0, t1))
	}
	for name, xs := range map[string][]float64{
		"cache.get_us_p50": get, "cache.put_us_p50": put,
		"disk.load_us_p50": load, "disk.save_us_p50": save, "jobkey.hash_us_p50": hash,
	} {
		if len(xs) > 0 {
			rep.layer[name] = median(xs)
		}
	}
	rep.record["replay"] = map[string]int{
		"requests": len(sched), "gets": len(get), "puts": len(put), "loads": len(load), "saves": len(save),
		"hashes": hashed, "hash_matches_server_key": matched,
	}
	return nil
}
