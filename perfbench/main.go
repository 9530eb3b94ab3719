// Command perfbench is the repository benchmark. It replays one
// seed-determined mobility schedule against the SoftMoW controller tree
// in one of five workloads (see workloads.go), checks the replay
// digests, and prints the end-to-end metrics as the last line of standard
// output. With --trace 1 it adds one traced round and prints the
// per-layer metrics instead. Run it from the repository root:
//
//	bash perfbench/run.sh --workload direct_closed --seed 1 --seconds 10 --trace 0
//
// The load generator, the controller tree and every control channel live
// in this one process; only tree_wire's northbound links use TCP
// loopback sockets. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/metrics"
)

// A round replays defaultEvents ops of the schedule. The first
// defaultPrefix build the UE population untimed. The rest are the timed
// window, replayed in defaultChunks chunks of 20 000 ops, so that even
// the rarest op kind (inter-region handover, about 8 %) has over 10
// samples beyond its p99 in every chunk. The schedule starts with every
// UE detached and the population grows with the op count, so the window
// (ops 50 000 to 150 000) is centred on op 100 000, the middle of the
// ROADMAP's canonical 200 000-op run: on average its tables are the size
// that run's are on average. Every workload replays the same schedule,
// so all of them land on the same digests at a given seed.
const (
	defaultEvents = 150_000
	defaultPrefix = 50_000
	defaultChunks = 5
)

// A canonical workload replays the ROADMAP's canonical 200 000-op run
// whole, timed from op 0, in chunks of the same 20 000 ops.
const (
	canonicalEvents = 200_000
	canonicalChunks = 10
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	events   int
	prefix   int
	chunks   int
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, measures the workload and prints the result.
// It returns the process exit status: 0 with a result line, 1 (and no
// result line) on any error, including a digest mismatch.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "schedule seed")
	fs.IntVar(&o.seconds, "seconds", 10, "least measured time in seconds: after the workload's rounds, more run until their timed windows add up to it")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced round and prints the per-layer metrics")
	fs.IntVar(&o.events, "events", 0, "schedule length of one round (0: the workload's own)")
	fs.IntVar(&o.prefix, "prefix", -1, "ops replayed untimed at the start of a round (-1: the workload's own)")
	fs.IntVar(&o.chunks, "chunks", 0, "chunks the timed window is split into (0: the workload's own)")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench-out", "directory for span and profile files of traced runs")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	events, prefix, chunks := defaultEvents, defaultPrefix, defaultChunks
	if w.canonical {
		events, prefix, chunks = canonicalEvents, 0, canonicalChunks
	}
	if o.events == 0 {
		o.events = events
	}
	if o.prefix < 0 {
		o.prefix = prefix
	}
	if o.chunks == 0 {
		o.chunks = chunks
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.prefix < 0 || o.chunks < 1 || o.events-o.prefix < o.chunks {
		return o, fmt.Errorf("--events %d, --prefix %d and --chunks %d leave no op for some chunk", o.events, o.prefix, o.chunks)
	}
	return o, nil
}

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one invocation reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	provenance provenance
	// detail is printed on its own line ahead of the result: per-round
	// digests and timings, the first error, and in a traced run the
	// traced-versus-untraced end-to-end comparison.
	detail map[string]interface{}
}

// printResult writes the provenance line, the detail line, and last the
// one-line result object.
func printResult(w io.Writer, r *result) error {
	for _, doc := range []interface{}{
		map[string]interface{}{"provenance": r.provenance},
		map[string]interface{}{"detail": r.detail},
		r,
	} {
		b, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// quantile is metrics.Quantile, except that no samples give 0 rather
// than NaN, which JSON cannot carry (a short run may never reach an op
// class).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Quantile(xs, q)
}

// errDigest marks a zero-failure round whose digests differ from the
// reference: the program's output is wrong, so no numbers are reported.
var errDigest = errors.New("digest mismatch")

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
