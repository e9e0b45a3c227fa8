package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/serve"

	_ "repro/internal/engine" // register the architectures
)

// goldenRuns are the five golden reference runs of the verify notes, each
// with the request body a daemon client sends for the same job (the CLI's
// defaults spelled out: -bw 128, -seed 1, conv G=1, stride 1, batch 1).
var goldenRuns = []struct {
	op, args, body string
}{
	{"gemm", "-arch maeri -ms 128 -bw 32 -M 24 -N 24 -K 96",
		`{"op":"gemm","arch":"maeri","ms":128,"bw":32,"m":24,"n":24,"k":96,"seed":1}`},
	{"gemm", "-arch tpu -ms 256 -M 40 -N 24 -K 64",
		`{"op":"gemm","arch":"tpu","ms":256,"bw":128,"m":40,"n":24,"k":64,"seed":1}`},
	{"spmm", "-arch sigma -ms 128 -bw 128 -M 48 -N 32 -K 128 -sparsity 0.7 -policy LFF",
		`{"op":"spmm","arch":"sigma","ms":128,"bw":128,"m":48,"n":32,"k":128,"sparsity":0.7,"policy":"LFF","seed":1}`},
	{"conv", "-arch maeri -ms 128 -bw 32 -R 3 -S 3 -C 8 -Kf 8 -X 12 -Y 12",
		`{"op":"conv","arch":"maeri","ms":128,"bw":32,"seed":1,
		  "conv":{"R":3,"S":3,"C":8,"G":1,"K":8,"N":1,"X":12,"Y":12,"Stride":1}}`},
	{"conv", "-arch snapea -ms 64 -bw 64 -R 3 -S 3 -C 8 -Kf 8 -X 12 -Y 12",
		`{"op":"conv","arch":"snapea","ms":64,"bw":64,"seed":1,
		  "conv":{"R":3,"S":3,"C":8,"G":1,"K":8,"N":1,"X":12,"Y":12,"Stride":1}}`},
}

// TestCLIMatchesDaemon pins the one job path: for every golden run, the
// CLI's flags resolve to the key the daemon caches the same job under, and
// the CLI's run marshals byte-equal to the daemon's first result run.
func TestCLIMatchesDaemon(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := serve.InProcClient(srv.Handler())
	for _, g := range goldenRuns {
		name := g.op + " " + g.args
		f, err := parseFlags(g.op, strings.Fields(g.args))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hw, err := f.hardware()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		j, err := serve.Resolve(f.request(g.op, hw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs, err := runBatch(j, f, newTraceSink(false, false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cli, err := json.Marshal(runs[0])
		if err != nil {
			t.Fatal(err)
		}

		resp, err := client.Post("http://stonned/jobs", "application/json", strings.NewReader(g.body))
		if err != nil {
			t.Fatal(err)
		}
		var env serve.Envelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: daemon status %d: %v", name, resp.StatusCode, err)
		}
		var res struct {
			Runs []json.RawMessage `json:"runs"`
		}
		if err := json.Unmarshal(env.Result, &res); err != nil || len(res.Runs) != 1 {
			t.Fatalf("%s: daemon result has %d runs: %v", name, len(res.Runs), err)
		}
		if env.Key != j.Key() {
			t.Errorf("%s: CLI key %s, daemon key %s", name, j.Key(), env.Key)
		}
		if !bytes.Equal(cli, res.Runs[0]) {
			t.Errorf("%s: CLI run differs from the daemon's:\n%s\nvs\n%s", name, cli, res.Runs[0])
		}
	}
}
