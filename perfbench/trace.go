package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// tracer collects the per-layer view of one traced round: deltas of the
// program's own counters over the replay, the process-cumulative
// histograms, Go runtime statistics, a CPU profile attributed by module,
// one span per op and one per probe call. Spans stay in memory until
// writeSpans.
type tracer struct {
	o      options
	w      spec
	origin time.Time

	// ctrRound is the counter snapshot taken before the traced round's
	// set-up, the others are taken by begin, just before the replay.
	ctrRound map[string]int64
	ctr0     map[string]int64
	stats0   core.Stats
	mem0     runtime.MemStats
	cpu0     [2]float64 // GC CPU seconds, total CPU seconds
	nb0      nbCounts
	prof     *os.File
	peakG    atomic.Int64
	stopG    chan struct{}
	doneG    chan struct{}

	// Results of end. recaComputes counts abstraction computes over the
	// traced round's set-up, prefix and window: they belong to set-up.
	ctr          map[string]int64
	recaComputes int64
	stats        core.Stats
	allocs       uint64
	allocB       uint64
	gcCycles     uint32
	gcFrac       float64
	hists        map[string]histSummary
	nb           nbCounts
	srtt         []time.Duration
	cpuShares    map[string]float64

	// Results of probe.
	probes      []probeSpan
	probeValues map[string]float64
}

type probeSpan struct {
	Probe string        `json:"probe"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Calls is how many calls of the probed function the span covers.
	Calls int `json:"calls"`
}

func newTracer(o options, w spec) *tracer {
	return &tracer{o: o, w: w, origin: time.Now(), probeValues: map[string]float64{}}
}

func (t *tracer) profPath() string {
	return filepath.Join(t.o.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", t.w.name, t.o.seed))
}

func (t *tracer) spanPath() string {
	return filepath.Join(t.o.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", t.w.name, t.o.seed))
}

// begin snapshots every counter and starts the CPU profile and the
// goroutine sampler, just before the replay.
func (t *tracer) begin(rg *rig) error {
	if err := os.MkdirAll(t.o.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(t.profPath())
	if err != nil {
		return err
	}
	t.prof = f
	t.ctr0 = metrics.RuntimeCounters()
	t.stats0 = sumStats(rg.controllers())
	runtime.ReadMemStats(&t.mem0)
	t.cpu0 = gcCPU()
	t.nb0 = rg.nbCounts()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.peakG.Store(int64(runtime.NumGoroutine()))
	t.stopG, t.doneG = make(chan struct{}), make(chan struct{})
	go t.sampleGoroutines()
	return nil
}

// sampleGoroutines tracks the peak goroutine count until stopG closes.
func (t *tracer) sampleGoroutines() {
	defer close(t.doneG)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.stopG:
			return
		case <-tick.C:
			if n := int64(runtime.NumGoroutine()); n > t.peakG.Load() {
				t.peakG.Store(n)
			}
		}
	}
}

// end stops the profile and the sampler and takes every delta, just
// after the replay.
func (t *tracer) end(rg *rig) error {
	pprof.StopCPUProfile()
	close(t.stopG)
	<-t.doneG
	if err := t.prof.Close(); err != nil {
		return err
	}
	ctr1 := metrics.RuntimeCounters()
	t.ctr = make(map[string]int64, len(ctr1))
	for name, v := range ctr1 {
		t.ctr[name] = v - t.ctr0[name]
	}
	t.recaComputes = ctr1["reca.compute.count"] - t.ctrRound["reca.compute.count"]
	s1 := sumStats(rg.controllers())
	t.stats = core.Stats{
		RulesInstalled:    s1.RulesInstalled - t.stats0.RulesInstalled,
		RulesTranslated:   s1.RulesTranslated - t.stats0.RulesTranslated,
		DelegatedRequests: s1.DelegatedRequests - t.stats0.DelegatedRequests,
	}
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	t.allocs = mem1.Mallocs - t.mem0.Mallocs
	t.allocB = mem1.TotalAlloc - t.mem0.TotalAlloc
	t.gcCycles = mem1.NumGC - t.mem0.NumGC
	cpu1 := gcCPU()
	if d := cpu1[1] - t.cpu0[1]; d > 0 {
		t.gcFrac = (cpu1[0] - t.cpu0[0]) / d
	}
	nb1 := rg.nbCounts()
	t.nb = nbCounts{Bytes: nb1.Bytes - t.nb0.Bytes, Writes: nb1.Writes - t.nb0.Writes}
	for _, d := range rg.nbDevs {
		srtt, _, _ := d.RTTEstimate()
		t.srtt = append(t.srtt, srtt)
	}
	var buf bytes.Buffer
	metrics.WriteRuntime(&buf)
	t.hists = parseHists(buf.String())
	shares, err := cpuShares(t.profPath())
	if err != nil {
		return err
	}
	t.cpuShares = shares
	return nil
}

func sumStats(cs []*core.Controller) core.Stats {
	var s core.Stats
	for _, c := range cs {
		st := c.StatsSnapshot()
		s.RulesInstalled += st.RulesInstalled
		s.RulesTranslated += st.RulesTranslated
		s.DelegatedRequests += st.DelegatedRequests
	}
	return s
}

// gcCPU reads the runtime's estimate of GC CPU seconds and total CPU
// seconds spent so far.
func gcCPU() [2]float64 {
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	var out [2]float64
	for i, s := range samples {
		if s.Value.Kind() == rtmetrics.KindFloat64 {
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// histSummary is one histogram line of metrics.WriteRuntime.
type histSummary struct {
	count    int64
	p50, p99 time.Duration
}

// parseHists reads the count, p50 and p99 of each histogram line of a
// metrics.WriteRuntime dump: "<name> count=N mean=D p50=D p95=D p99=D max=D".
func parseHists(dump string) map[string]histSummary {
	out := map[string]histSummary{}
	for _, line := range strings.Split(dump, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[1], "count=") {
			continue
		}
		var h histSummary
		for _, kv := range f[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			if k == "count" {
				h.count, _ = strconv.ParseInt(v, 10, 64)
				continue
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				continue
			}
			switch k {
			case "p50":
				h.p50 = d
			case "p99":
				h.p99 = d
			}
		}
		out[f[0]] = h
	}
	return out
}

// metrics assembles the per-layer metrics of the traced round. untraced
// and traced are the end-to-end metrics of the untraced rounds and of
// the traced round; their difference is the tracing overhead.
func (t *tracer) metrics(r *round, untraced, traced map[string]metric) (map[string]metric, error) {
	ops := float64(len(r.ops))
	perOp := func(n int64) float64 { return float64(n) / ops }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	h := t.hists

	var waits []float64
	for _, rec := range r.recs {
		waits = append(waits, ms(rec.exec-rec.due))
	}

	// On tree_wire the RTT histogram also holds the root's fences to its
	// children over TCP loopback, which have no netem delay, so the excess
	// over the configured delay is reported only where every sample is a
	// leaf-to-switch fence.
	rttP50 := ms(h["core.southbound.rtt_observed"].p50)
	rttExcess := 0.0
	if h["core.southbound.rtt_observed"].count > 0 && !t.w.tree {
		rttExcess = rttP50 - 2*ms(t.w.delay)
	}
	var srtt []float64
	for _, d := range t.srtt {
		srtt = append(srtt, ms(d))
	}
	hits, misses := t.ctr["core.graph.cache_hits"], t.ctr["core.graph.cache_misses"]

	m := map[string]metric{
		"workload.gen_s":             {r.gen.Seconds(), "s"},
		"workload.queue_wait_p50_ms": {quantile(waits, 0.50), "ms"},
		"workload.queue_wait_p99_ms": {quantile(waits, 0.99), "ms"},
		"workload.stalls":            {float64(r.stalls), "count"},

		"core.pathsetup.setup_p50_ms":    {ms(h["core.pathsetup.setup_latency"].p50), "ms"},
		"core.pathsetup.setup_p99_ms":    {ms(h["core.pathsetup.setup_latency"].p99), "ms"},
		"core.pathsetup.teardown_p50_ms": {ms(h["core.pathsetup.teardown_latency"].p50), "ms"},
		"core.rules_installed_per_op":    {perOp(int64(t.stats.RulesInstalled)), "1/op"},
		"core.rules_translated_per_op":   {perOp(int64(t.stats.RulesTranslated)), "1/op"},
		"core.delegated_per_op":          {perOp(int64(t.stats.DelegatedRequests)), "1/op"},

		"core.southbound.flowmods_per_op":      {perOp(t.ctr["core.southbound.flowmods"]), "1/op"},
		"core.southbound.barriers_per_op":      {perOp(t.ctr["core.southbound.barriers"]), "1/op"},
		"core.southbound.sync_roundtrips":      {float64(t.ctr["core.southbound.sync_roundtrips"]), "count"},
		"core.southbound.stale_replies":        {float64(t.ctr["core.southbound.rtt_stale_replies"]), "count"},
		"core.southbound.flush_p50_ms":         {ms(h["core.southbound.flush_latency"].p50), "ms"},
		"core.southbound.flush_p99_ms":         {ms(h["core.southbound.flush_latency"].p99), "ms"},
		"core.southbound.rtt_p50_ms":           {rttP50, "ms"},
		"core.southbound.rtt_p99_ms":           {ms(h["core.southbound.rtt_observed"].p99), "ms"},
		"core.southbound.rto_p50_ms":           {ms(h["core.southbound.rtt_timeout"].p50), "ms"},
		"core.southbound.spurious_retry_ratio": {ratio(t.ctr["core.southbound.barrier_retries"], t.ctr["core.southbound.barriers"]), "ratio"},
		"core.southbound.rtt_excess_p50_ms":    {rttExcess, "ms"},

		"core.graph.cache_hit_ratio": {ratio(hits, hits+misses), "ratio"},
		"core.graph.rebuilds":        {float64(t.ctr["core.graph.rebuilds"]), "count"},
		"core.graph.build_p50_ms":    {ms(h["core.graph.build_latency"].p50), "ms"},

		"reca.compute_count":  {float64(t.recaComputes), "count"},
		"reca.compute_p50_ms": {ms(h["reca.compute.latency"].p50), "ms"},

		"southbound.dropped_sends": {float64(t.ctr["southbound.dropped_sends"]), "count"},
		"netem.frames_per_op":      {perOp(t.ctr["netem.sent"]), "1/op"},

		"northbound.bytes_per_op":  {perOp(t.nb.Bytes), "B/op"},
		"northbound.writes_per_op": {perOp(t.nb.Writes), "1/op"},
		"northbound.srtt_ms":       {quantile(srtt, 0.5), "ms"},

		"runtime.allocs_per_op":   {perOp(int64(t.allocs)), "1/op"},
		"runtime.bytes_per_op":    {perOp(int64(t.allocB)), "B/op"},
		"runtime.gc_cycles":       {float64(t.gcCycles), "count"},
		"runtime.gc_cpu_fraction": {t.gcFrac, "ratio"},
		"runtime.goroutines_peak": {float64(t.peakG.Load()), "count"},
		"trace.overhead_tput_pct": {overheadPct(untraced["throughput_ev_s"].Value, traced["throughput_ev_s"].Value, true), "%"},
		"trace.overhead_p99_pct":  {overheadPct(untraced["all_p99_ms"].Value, traced["all_p99_ms"].Value, false), "%"},
	}
	for name, unit := range probeUnits {
		v, ok := t.probeValues[name]
		if !ok {
			return nil, fmt.Errorf("probe %s did not run", name)
		}
		m[name] = metric{v, unit}
	}
	for _, mod := range cpuModules {
		m["cpu_share."+mod] = metric{t.cpuShares[mod], "ratio"}
	}
	return m, nil
}

// overheadPct is how much worse the traced figure is than the untraced
// one, in percent of the untraced one.
func overheadPct(untraced, traced float64, higherIsBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	d := (traced - untraced) / untraced * 100
	if higherIsBetter {
		return -d
	}
	return d
}

// opSpan is one op of the traced round. TraceID is the op's Seq.
type opSpan struct {
	TraceID int           `json:"trace_id"`
	Kind    string        `json:"kind"`
	Due     time.Duration `json:"due_ns"`
	Exec    time.Duration `json:"exec_ns"`
	End     time.Duration `json:"end_ns"`
	Failed  bool          `json:"failed,omitempty"`
}

// writeSpans writes the traced round's spans as JSON lines: a header with
// the run's identity and northbound socket counts, one line per op, one
// per probe call.
func (t *tracer) writeSpans(r *round) error {
	f, err := os.Create(t.spanPath())
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	// Write errors stick in bw and surface at Flush; these values always
	// encode.
	_ = enc.Encode(map[string]interface{}{
		"workload": t.w.name, "seed": t.o.seed, "events": t.o.events,
		"northbound": t.nb, "cpu_profile": t.profPath(),
	})
	for i, op := range r.ops {
		rec := r.recs[i]
		_ = enc.Encode(opSpan{TraceID: op.Seq, Kind: op.Kind.String(), Due: rec.due, Exec: rec.exec, End: rec.end, Failed: rec.failed})
	}
	for _, p := range t.probes {
		_ = enc.Encode(p)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
