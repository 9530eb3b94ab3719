package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkDoc is the part of ../BENCHMARK.json the self-test checks the
// benchmark against.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return doc
}

// output is one invocation's parsed standard output.
type output struct {
	detail map[string]json.RawMessage
	result struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
}

// invoke runs the benchmark in-process on a short schedule and parses its
// last two output lines.
func invoke(t *testing.T, workload string, trace int, outDir string) output {
	t.Helper()
	// The benchmark reads internal/ and go.mod relative to the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--events", "3000", "--prefix", "1000", "--chunks", "2", "--out", outDir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d exited %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want detail and result lines, got %q", workload, stdout.String())
	}
	var out output
	var det struct {
		Detail map[string]json.RawMessage `json:"detail"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &det); err != nil {
		t.Fatalf("%s: detail line: %v", workload, err)
	}
	out.detail = det.Detail
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.result); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	if !out.result.Correct || out.result.Attempted < 1 {
		t.Fatalf("%s: result %+v", workload, out.result)
	}
	return out
}

// TestWorkloads runs every workload briefly, untraced and traced, and
// checks the result lines against BENCHMARK.json, the state digests
// across workloads, the CPU attribution and the op spans. BENCHMARK.json
// lists a subset of the workloads (README.md, "Workloads"); all of them
// must print its metrics.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	doc := loadBenchmarkDoc(t)
	for _, w := range doc.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json lists workload %s, which the benchmark does not have", w.Name)
		}
	}
	outDir := t.TempDir()
	var state string // the state digest of the first zero-failure round
	for _, w := range workloads {
		plain := invoke(t, w.name, 0, outDir)
		checkMetrics(t, w.name, plain.result.Metrics, doc.EndToEnd)
		traced := invoke(t, w.name, 1, outDir)
		checkMetrics(t, w.name+" traced", traced.result.Metrics, doc.PerLayer)

		// verify() already holds every zero-failure round to the serial
		// reference; this compares the rounds of different workloads
		// with each other.
		var rounds []struct {
			Failed int64  `json:"failed"`
			State  string `json:"state_digest"`
		}
		if err := json.Unmarshal(plain.detail["rounds"], &rounds); err != nil {
			t.Fatalf("%s: rounds: %v", w.name, err)
		}
		for i, r := range rounds {
			if r.Failed > 0 {
				continue
			}
			if state == "" {
				state = r.State
			} else if r.State != state {
				t.Errorf("%s round %d state digest %s, earlier workloads %s", w.name, i, r.State, state)
			}
		}

		var sum float64
		for name, m := range traced.result.Metrics {
			if strings.HasPrefix(name, "cpu_share.") {
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("%s: cpu_share.* sums to %.4f, want 1 +- 0.02", w.name, sum)
		}
		checkSpans(t, filepath.Join(outDir, w.name+"-seed3.spans.jsonl"))
	}
}

func checkMetrics(t *testing.T, who string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", who, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", who, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", who, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", who, w.Name, m.Value)
		}
	}
}

// checkSpans requires every op span to satisfy end >= exec start >= due.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("spans: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	ops := 0
	for sc.Scan() {
		var s struct {
			TraceID *int  `json:"trace_id"`
			Due     int64 `json:"due_ns"`
			Exec    int64 `json:"exec_ns"`
			End     int64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.TraceID == nil {
			continue // header or probe span
		}
		ops++
		if !(s.End >= s.Exec && s.Exec >= s.Due) {
			t.Errorf("%s: op %d due %d exec %d end %d out of order", path, *s.TraceID, s.Due, s.Exec, s.End)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ops == 0 {
		t.Errorf("%s: no op spans", path)
	}
}

// TestDigestMismatchFails pins a wrong digest for the run's (seed,
// events) and requires a non-zero exit with no result line.
func TestDigestMismatchFails(t *testing.T) {
	key := [2]int64{5, 500}
	pinnedDigests[key] = digests{Trace: "0000000000000000", State: "0000000000000000"}
	defer delete(pinnedDigests, key)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "direct_closed", "--seed", "5", "--seconds", "1", "--events", "500", "--prefix", "100"}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q; want a non-zero exit and no result", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "digest mismatch") {
		t.Errorf("stderr %q does not name the digest mismatch", stderr.String())
	}
}

// TestVerifySkipsStateOfFailedRounds checks the correctness gate's two
// rules: a zero-failure round must match the reference, a round with
// failures is reported but not compared.
func TestVerifySkipsStateOfFailedRounds(t *testing.T) {
	ref := digests{Trace: "t", State: "s"}
	o := options{seed: 9, events: 9}
	ok := &round{digests: ref}
	bad := &round{digests: digests{Trace: "t", State: "x"}}
	if err := verify(o, []*round{ok}, ref); err != nil {
		t.Fatalf("matching round: %v", err)
	}
	if err := verify(o, []*round{ok, bad}, ref); !errors.Is(err, errDigest) {
		t.Fatalf("zero-failure round with a wrong state digest: err %v, want errDigest", err)
	}
	failed := &round{digests: digests{Trace: "t", State: "x"}, failures: 1}
	if err := verify(o, []*round{ok, failed}, ref); err != nil {
		t.Fatalf("round with failures must not be compared: %v", err)
	}
}

func TestAttributeTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             repro/internal/metrics.(*DurationHist).Observe
             repro/internal/core.(*Controller).Handover
             repro/internal/workload.(*Engine).exec
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   repro/internal/southbound.AppendFrame
             main.run
-----------+-------------------------------------------------------
`
	got, err := attributeTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"core": 0.6, "runtime": 0.2, "southbound": 0.2}
	for m, v := range want {
		if math.Abs(got[m]-v) > 1e-9 {
			t.Errorf("share %s = %v, want %v (all: %v)", m, got[m], v, got)
		}
	}
}
