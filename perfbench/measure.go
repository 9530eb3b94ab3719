package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// pinnedDigests are replay digests confirmed by earlier runs, keyed by
// (seed, events): the ROADMAP's canonical pin at 200 000 events, the
// benchmark's default schedule length, and the 25 000-op length of
// earlier rounds. A run at a listed key must land on it.
var pinnedDigests = map[[2]int64]digests{
	{1, 200_000}:       {Trace: "38b75103cf760429", State: "904e505b89fcac36"},
	{1, defaultEvents}: {Trace: "90313c3fe5658f2d", State: "c3a8cc4597f51ee1"},
	{1, 25_000}:        {Trace: "8a6ed9ced23e629c", State: "5fcb0411da78cc36"},
}

type digests struct {
	Trace string `json:"trace"`
	State string `json:"state"`
}

// opRec is one op's timing, relative to the start of the round's timed
// window: due is when the op was due (open loop: its chunk's start +
// (Seq - first Seq of the chunk)/rate; closed loop: its exec start, since
// a closed loop issues an op when its lane frees), exec when the engine
// started it, end when it returned.
type opRec struct {
	due, exec, end time.Duration
	failed         bool
}

// round is one replay of the schedule on a freshly built cluster: an
// untimed prefix that builds the UE population, then the timed window,
// replayed in chunks. Only a traced round keeps its per-op data (ops,
// recs) past runRound; every round keeps its chunks' end-to-end figures,
// so memory does not grow with the number of rounds a run measures.
type round struct {
	setup, gen, prefix time.Duration
	// n is the schedule length, window the number of timed ops.
	n, window        int
	failures, stalls int64
	firstErr         error
	chunks           []*chunk
	// lat holds the timed window's op latencies in ms by class, plus
	// "all", for the run's pooled percentiles (float32 keeps the
	// samples of a whole run small).
	lat map[string][]float32
	// ops and recs are the timed window's ops and their timings.
	ops     []workload.Op
	recs    []opRec
	digests digests
}

func (r *round) failed() bool { return r.failures > 0 }

// add counts one engine's failures and stalls into the round.
func (r *round) add(res *workload.Result, firstErr error) {
	r.failures += res.Failures
	r.stalls += res.Stalls
	if r.firstErr == nil {
		r.firstErr = firstErr
	}
}

// chunk is one slice of the timed window, replayed by its own engine
// (engines count failures and stalls over their lifetime).
type chunk struct {
	elapsed, cpu time.Duration
	e2e          map[string]float64
	samples      map[string]int
}

// setUp generates the schedule and builds and bootstraps the workload's
// cluster; the time it takes is one setup_s sample.
func setUp(w spec, cfg workload.Config) (ops []workload.Op, rg *rig, gen, setup time.Duration, err error) {
	t0 := time.Now()
	if ops, err = workload.GenerateSchedule(cfg); err != nil {
		return nil, nil, 0, 0, err
	}
	gen = time.Since(t0)
	for i, op := range ops {
		if op.Seq != i {
			return nil, nil, 0, 0, fmt.Errorf("schedule op %d carries Seq %d", i, op.Seq)
		}
	}
	if rg, err = buildRig(w, cfg); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("build cluster: %w", err)
	}
	return ops, rg, gen, time.Since(t0), nil
}

// runRound sets up a cluster, replays the untimed prefix, times the rest
// of the schedule in chunks and computes the digests over the whole
// schedule. When tr is non-nil the timed window is traced and the layer
// probes run before the cluster is torn down.
func runRound(w spec, o options, cfg workload.Config, tr *tracer) (*round, error) {
	if tr != nil {
		tr.ctrRound = metrics.RuntimeCounters()
	}
	ops, rg, gen, setup, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	defer rg.close()
	r := &round{setup: setup, gen: gen, n: len(ops)}

	t0 := time.Now()
	pre, err := workload.NewEngineOn(w.prefixConfig(cfg), rg.cl)
	if err != nil {
		return nil, err
	}
	res := pre.RunOps(ops[:o.prefix])
	r.prefix = time.Since(t0)
	r.add(res, res.FirstErr)

	r.ops = ops[o.prefix:]
	r.window = len(r.ops)
	r.recs = make([]opRec, len(r.ops))
	if tr != nil {
		if err := tr.begin(rg); err != nil {
			return nil, err
		}
	}
	origin := time.Now()
	for c := 0; c < o.chunks; c++ {
		lo, hi := c*len(r.ops)/o.chunks, (c+1)*len(r.ops)/o.chunks
		ch, err := runChunk(w, cfg, rg, r, origin, lo, hi)
		if err != nil {
			return nil, err
		}
		r.chunks = append(r.chunks, ch)
	}
	if tr != nil {
		if err := tr.end(rg); err != nil {
			return nil, err
		}
	}
	r.digests = digests{Trace: workload.TraceDigest(ops), State: rg.stateDigest()}
	if tr == nil {
		r.ops, r.recs = nil, nil
		return r, nil
	}
	if err := tr.probe(rg); err != nil {
		return nil, err
	}
	return r, nil
}

// runChunk replays r.ops[lo:hi] with the workload's own engine settings
// and computes the chunk's end-to-end figures.
func runChunk(w spec, cfg workload.Config, rg *rig, r *round, origin time.Time, lo, hi int) (*chunk, error) {
	eng, err := workload.NewEngineOn(cfg, rg.cl)
	if err != nil {
		return nil, err
	}
	ops, recs := r.ops[lo:hi], r.recs[lo:hi]
	base := ops[0].Seq
	run := ops
	if w.rate > 0 {
		// The open loop paces an op at RunOps start + Seq/rate, so the
		// chunk is handed over with Seq rebased to 0.
		run = make([]workload.Op, len(ops))
		for i, op := range ops {
			op.Seq -= base
			run[i] = op
		}
	}
	// Each op's record is written by the one goroutine that executes it
	// and read only after RunOps has waited for every lane. The first
	// error is kept here, not taken from the engine, so that it names the
	// op by its schedule Seq.
	var firstErr atomic.Pointer[error]
	eng.SetExecWrapper(func(op workload.Op, next func() error) error {
		exec := time.Since(origin)
		err := next()
		i := op.Seq
		if w.rate > 0 {
			i += base
		}
		recs[i-base] = opRec{exec: exec, end: time.Since(origin), failed: err != nil}
		if err != nil {
			e := fmt.Errorf("op %d (%s ue%07d): %w", i, op.Kind, op.UE, err)
			firstErr.CompareAndSwap(nil, &e)
		}
		return err
	})
	cpu0 := cpuTime()
	start := time.Now()
	res := eng.RunOps(run)
	c := &chunk{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	offset := start.Sub(origin)
	for i := range recs {
		recs[i].due = recs[i].exec
		if w.rate > 0 {
			recs[i].due = offset + time.Duration(float64(i)/w.rate*float64(time.Second))
		}
	}
	var fe error
	if p := firstErr.Load(); p != nil {
		fe = *p
	}
	r.add(res, fe)
	lat := latencies(ops, recs)
	c.summarize(len(ops), lat)
	if r.lat == nil {
		r.lat = make(map[string][]float32, len(lat))
	}
	for cls, xs := range lat {
		for _, x := range xs {
			r.lat[cls] = append(r.lat[cls], float32(x))
		}
	}
	return c, nil
}

// referenceDigests replays the schedule serially — one lane, one op in
// flight, in-process switches — and returns its digests. Replay digests
// depend only on the seed and the schedule length, so every workload's
// zero-failure rounds must match this simplest execution.
func referenceDigests(seed int64, events int) (digests, error) {
	cfg := baseConfig(seed, events)
	cfg.Mode, cfg.Workers, cfg.MaxInFlight = workload.ModeClosed, 1, 1
	eng, cl, err := workload.NewEngine(cfg)
	if err != nil {
		return digests{}, err
	}
	defer cl.Close()
	ops, err := workload.GenerateSchedule(cfg)
	if err != nil {
		return digests{}, err
	}
	res := eng.RunOps(ops)
	if res.FirstErr != nil {
		return digests{}, fmt.Errorf("reference replay failed %d ops, first: %w", res.Failures, res.FirstErr)
	}
	return digests{Trace: workload.TraceDigest(ops), State: workload.StateDigest(cl)}, nil
}

// verify checks every round's digests against the reference and the
// pinned table. The trace digest depends on the generator alone and must
// always match; the state digest is checked on rounds without failures
// (a failed op legitimately leaves different state behind).
func verify(o options, rounds []*round, ref digests) error {
	if pin, ok := pinnedDigests[[2]int64{o.seed, int64(o.events)}]; ok && pin != ref {
		return fmt.Errorf("%w: reference replay %s/%s, pinned %s/%s", errDigest, ref.Trace, ref.State, pin.Trace, pin.State)
	}
	for i, r := range rounds {
		if r.digests.Trace != ref.Trace {
			return fmt.Errorf("%w: round %d trace digest %s, reference %s", errDigest, i, r.digests.Trace, ref.Trace)
		}
		if !r.failed() && r.digests.State != ref.State {
			return fmt.Errorf("%w: round %d (0 failures) state digest %s, reference %s", errDigest, i, r.digests.State, ref.State)
		}
	}
	return nil
}

// setupSamples is how many stand-alone set-ups a run makes before its
// rounds, so that setup_s is a median even when only one round fits.
const setupSamples = 25

// measure makes the stand-alone set-ups, then runs the workload's rounds,
// and more until their timed windows add up to --seconds, then (with --trace 1) one traced round, then the
// serial reference replay, and assembles the result.
func measure(o options, log io.Writer) (*result, error) {
	w, _ := lookupWorkload(o.workload)
	cfg := w.config(o.seed, o.events)
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		_, rg, _, setup, err := setUp(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		rg.close()
		setups = append(setups, setup.Seconds())
		// Collect each torn-down cluster outside every timed window, so
		// one cluster's garbage is not charged to the next one's set-up.
		runtime.GC()
	}
	var rounds []*round
	var measured time.Duration
	for len(rounds) < w.rounds || measured < time.Duration(o.seconds)*time.Second {
		r, err := runRound(w, o, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(rounds), err)
		}
		rounds = append(rounds, r)
		measured += r.windowTime()
		setups = append(setups, r.setup.Seconds())
		logRound(log, w, len(rounds)-1, r)
		runtime.GC()
	}
	rss := peakRSSMB()
	all := rounds

	var tr *tracer
	var traced *round
	if o.trace {
		tr = newTracer(o, w)
		var err error
		if traced, err = runRound(w, o, cfg, tr); err != nil {
			return nil, fmt.Errorf("traced round: %w", err)
		}
		logRound(log, w, len(rounds), traced)
		all = append(append([]*round(nil), rounds...), traced)
	}

	ref, err := referenceDigests(o.seed, o.events)
	if err != nil {
		return nil, err
	}
	if err := verify(o, all, ref); err != nil {
		return nil, err
	}

	res := &result{Correct: true, provenance: newProvenance(o, w, cfg)}
	var firstErr error
	for _, r := range all {
		res.Attempted += int64(r.n)
		res.Failed += r.failures
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	e2e := endToEnd(rounds, setups, rss)
	res.detail = map[string]interface{}{
		"reference_digests": ref,
		"rounds":            roundDetails(rounds),
		"setups_s":          setups,
	}
	if firstErr != nil {
		res.detail["first_error"] = firstErr.Error()
		fmt.Fprintln(log, "perfbench: first failure:", firstErr)
	}
	if traced == nil {
		res.Metrics = e2e
		return res, nil
	}
	tracedE2E := endToEnd([]*round{traced}, []float64{traced.setup.Seconds()}, rss)
	res.detail["traced_round"] = roundDetails([]*round{traced})
	res.detail["end_to_end_untraced"] = e2e
	res.detail["end_to_end_traced"] = tracedE2E
	if res.Metrics, err = tr.metrics(traced, e2e, tracedE2E); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(traced); err != nil {
		return nil, err
	}
	res.detail["trace_file"] = tr.spanPath()
	return res, nil
}

func logRound(log io.Writer, w spec, i int, r *round) {
	fmt.Fprintf(log, "perfbench: %s round %d: setup %.3fs, prefix %d ops in %.3fs, window %d ops in %.3fs (%.0f ev/s), %d failed, %d goroutines after teardown\n",
		w.name, i, r.setup.Seconds(), r.n-r.window, r.prefix.Seconds(), r.window, r.windowTime().Seconds(),
		float64(r.window)/r.windowTime().Seconds(), r.failures, runtime.NumGoroutine())
}

// windowTime is the replay time of the round's timed window.
func (r *round) windowTime() time.Duration {
	var d time.Duration
	for _, c := range r.chunks {
		d += c.elapsed
	}
	return d
}

func roundDetails(rounds []*round) []map[string]interface{} {
	out := make([]map[string]interface{}, len(rounds))
	for i, r := range rounds {
		d := map[string]interface{}{
			"setup_s": r.setup.Seconds(), "gen_s": r.gen.Seconds(),
			"prefix_s": r.prefix.Seconds(), "window_s": r.windowTime().Seconds(),
			"ops": r.n, "window_ops": r.window,
			"failed": r.failures, "stalls": r.stalls,
			"trace_digest": r.digests.Trace, "state_digest": r.digests.State,
		}
		var chunks []map[string]interface{}
		for _, c := range r.chunks {
			cd := map[string]interface{}{"elapsed_s": c.elapsed.Seconds()}
			for name, v := range c.e2e {
				cd[name] = v
			}
			for cls, n := range c.samples {
				cd["samples_"+cls] = n
			}
			chunks = append(chunks, cd)
		}
		d["chunks"] = chunks
		out[i] = d
	}
	return out
}

// opClass groups op kinds into the pooled latency metrics.
var opClass = map[workload.OpKind]string{
	workload.OpAttach:         "bearer",
	workload.OpBearerSetup:    "bearer",
	workload.OpBearerTeardown: "release",
	workload.OpDetach:         "release",
	workload.OpHandoverIntra:  "ho_intra",
	workload.OpHandoverInter:  "ho_inter",
}

// e2eUnits lists every end-to-end metric with its unit.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"throughput_ev_s": "1/s",
	"ok_ratio":        "ratio",
	"bearer_p50_ms":   "ms",
	"bearer_p99_ms":   "ms",
	"release_p50_ms":  "ms",
	"ho_intra_p50_ms": "ms",
	"ho_intra_p99_ms": "ms",
	"ho_inter_p50_ms": "ms",
	"ho_inter_p99_ms": "ms",
	"all_p99_ms":      "ms",
	"cpu_ms_per_kev":  "ms",
	"rss_peak_mb":     "MB",
}

// latencies groups op latencies (end - due, in ms) by class, plus "all".
// A failed op counts as the slowest op of its chunk, so failures can only
// raise a percentile.
func latencies(ops []workload.Op, recs []opRec) map[string][]float64 {
	var slowest float64
	for _, rec := range recs {
		slowest = math.Max(slowest, ms(rec.end-rec.due))
	}
	lat := map[string][]float64{}
	for i, op := range ops {
		v := ms(recs[i].end - recs[i].due)
		if recs[i].failed {
			v = slowest
		}
		cls := opClass[op.Kind]
		lat[cls] = append(lat[cls], v)
		lat["all"] = append(lat["all"], v)
	}
	return lat
}

// latencyMetrics maps each end-to-end latency metric to its op class
// and percentile.
var latencyMetrics = map[string]struct {
	cls string
	q   float64
}{
	"bearer_p50_ms":   {"bearer", 0.50},
	"bearer_p99_ms":   {"bearer", 0.99},
	"release_p50_ms":  {"release", 0.50},
	"ho_intra_p50_ms": {"ho_intra", 0.50},
	"ho_intra_p99_ms": {"ho_intra", 0.99},
	"ho_inter_p50_ms": {"ho_inter", 0.50},
	"ho_inter_p99_ms": {"ho_inter", 0.99},
	"all_p99_ms":      {"all", 0.99},
}

// summarize computes the chunk's own end-to-end figures from its n ops'
// latencies.
func (c *chunk) summarize(n int, lat map[string][]float64) {
	nf := float64(n)
	c.e2e = map[string]float64{
		"throughput_ev_s": nf / c.elapsed.Seconds(),
		"cpu_ms_per_kev":  ms(c.cpu) / (nf / 1000),
	}
	for name, l := range latencyMetrics {
		c.e2e[name] = quantile(lat[l.cls], l.q)
	}
	c.samples = make(map[string]int, len(lat))
	for cls, xs := range lat {
		c.samples[cls] = len(xs)
	}
}

// endToEnd computes the run's end-to-end metrics from its rounds.
// Throughput and CPU per 1000 ops are the median over every chunk, so one
// disturbed chunk does not move them. Each latency percentile is taken
// over every timed op of the rounds pooled: a tail set by rare stalls
// then moves smoothly with how often they happen, where a median of
// per-chunk percentiles jumps as stalls reach more or fewer than half of
// the chunks. setup_s is the median of the set-up samples, ok_ratio is
// pooled over every op of the rounds (prefix included), and rss_peak_mb
// is the process's peak.
func endToEnd(rounds []*round, setups []float64, rssMB float64) map[string]metric {
	per := map[string][]float64{"setup_s": setups}
	pooled := map[string][]float64{}
	var ops, failed int64
	for _, r := range rounds {
		ops += int64(r.n)
		failed += r.failures
		for _, c := range r.chunks {
			for _, name := range []string{"throughput_ev_s", "cpu_ms_per_kev"} {
				per[name] = append(per[name], c.e2e[name])
			}
		}
		for cls, xs := range r.lat {
			for _, x := range xs {
				pooled[cls] = append(pooled[cls], float64(x))
			}
		}
	}
	m := map[string]metric{
		"ok_ratio":    {1 - float64(failed)/float64(ops), e2eUnits["ok_ratio"]},
		"rss_peak_mb": {rssMB, e2eUnits["rss_peak_mb"]},
	}
	for name, xs := range per {
		m[name] = metric{quantile(xs, 0.5), e2eUnits[name]}
	}
	for name, l := range latencyMetrics {
		m[name] = metric{quantile(pooled[l.cls], l.q), e2eUnits[name]}
	}
	return m
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's total mapped memory where /proc is missing.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
