package main

import (
	"errors"
	"strings"
	"testing"
)

// TestCorruptedBodyFails checks both halves of the serve output check: a
// response differing from the job's earlier responses, and a first-seen
// body differing from the reference a cache-less server computes.
func TestCorruptedBodyFails(t *testing.T) {
	job := drawServeJob(newRNG(1, "test"), 2) // a small TPU gemm
	ref, err := refBody(job)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []byte(strings.Replace(string(ref), `"total_cycles":`, `"total_cycles":1`, 1))

	v := newVerifier()
	good := outcome{Job: 0, Status: 200}
	good.Env.Key, good.Env.Result = "k", ref
	bad := good
	bad.Env.Result = corrupt
	v.observe(&good)
	v.observe(&good)
	if len(v.fails) != 0 {
		t.Fatalf("identical responses failed: %v", v.fails)
	}
	v.observe(&bad)
	v.observe(&outcome{Job: 0, Status: 429, Err: errors.New("queue full")})
	if len(v.fails) != 2 {
		t.Fatalf("want a byte mismatch and a refused request, got %v", v.fails)
	}
	if err := v.checkReferences([]serveJob{job}); err != nil {
		t.Fatal(err)
	}
	if len(v.fails) != 2 {
		t.Errorf("first-seen body equals the reference, but got %v", v.fails)
	}

	v = newVerifier()
	v.observe(&bad)
	if err := v.checkReferences([]serveJob{job}); err != nil {
		t.Fatal(err)
	}
	if len(v.fails) != 1 || !strings.Contains(v.fails[0], "reference") {
		t.Errorf("corrupted first body: failures %v, want one reference mismatch", v.fails)
	}
}

// refBody computes a job's reference result bytes.
func refBody(job serveJob) ([]byte, error) {
	c, err := referenceClient()
	if err != nil {
		return nil, err
	}
	env, err := postOnce(c, "http://ref/jobs", job.body)
	return env.Result, err
}
