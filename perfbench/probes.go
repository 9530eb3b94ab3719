package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/routing"
	"repro/internal/southbound"
)

// probeUnits names every probe metric and its unit. Probes are timed
// calls into one public function each, made after the traced replay on
// the replay's own cluster and rule sizes.
var probeUnits = map[string]string{
	"routing.build_graph_ms":         "ms",
	"southbound.encode_ns_per_frame": "ns",
	"southbound.decode_ns_per_frame": "ns",
	"southbound.allocs_per_frame":    "1/frame",
	"southbound.fence_rt_us":         "us",
	"netem.send_ns_per_frame":        "ns",
}

const (
	probeBatches   = 5      // timed batches per probe; the median is reported
	codecFrames    = 20_000 // FlowMod + BarrierRequest pairs per codec batch
	fenceCalls     = 200    // rule + fence round trips per fence batch
	netemFrames    = 20_000 // frames per netem batch
	graphPairs     = 50     // root + leaf BuildGraph pairs per graph batch
	probeNetemWait = 10 * time.Second
)

// probe runs every probe against the round's cluster before teardown.
func (t *tracer) probe(rg *rig) error {
	if err := t.timeBatches("routing.build_graph_ms", graphPairs, func() error {
		for i := 0; i < graphPairs; i++ {
			routing.BuildGraph(rg.root.NIB)
			routing.BuildGraph(rg.leaves[0].NIB)
		}
		return nil
	}, nil, func(d time.Duration) float64 { return ms(d) / graphPairs }); err != nil {
		return err
	}

	rule := sampleRule(rg)
	fm := southbound.Msg{Type: southbound.TypeFlowMod, Xid: 1, Datapath: "A0",
		Body: southbound.FlowMod{Command: southbound.FlowAdd, Rule: rule}}
	br := southbound.Msg{Type: southbound.TypeBarrierRequest, Xid: 2, Datapath: "A0", Body: southbound.Barrier{}}
	buf := make([]byte, 0, 4096)
	perFrame := func(d time.Duration) float64 { return float64(d) / (2 * codecFrames) }
	if err := t.timeBatches("southbound.encode_ns_per_frame", 2*codecFrames, func() error {
		var err error
		for i := 0; i < codecFrames && err == nil; i++ {
			if buf, err = southbound.AppendFrame(buf[:0], &fm); err == nil {
				buf, err = southbound.AppendFrame(buf[:0], &br)
			}
		}
		return err
	}, nil, perFrame); err != nil {
		return err
	}
	fmFrame, err := southbound.AppendFrame(nil, &fm)
	if err != nil {
		return err
	}
	brFrame, err := southbound.AppendFrame(nil, &br)
	if err != nil {
		return err
	}
	decode := func() error {
		for i := 0; i < codecFrames; i++ {
			if _, err := southbound.DecodeFrame(fmFrame[4:]); err != nil {
				return err
			}
			if _, err := southbound.DecodeFrame(brFrame[4:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := t.timeBatches("southbound.decode_ns_per_frame", 2*codecFrames, decode, nil, perFrame); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < codecFrames; i++ {
		if buf, err = southbound.AppendFrame(buf[:0], &fm); err != nil {
			return err
		}
		if buf, err = southbound.AppendFrame(buf[:0], &br); err != nil {
			return err
		}
	}
	if err := decode(); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	t.probeValues["southbound.allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / (2 * codecFrames)

	if err := t.fenceProbe(rule); err != nil {
		return err
	}
	return t.netemProbe()
}

// timeBatches times probeBatches calls of batch, runs settle (untimed,
// may be nil) after each, records one span per batch, and stores the
// median of scale(duration) under name.
func (t *tracer) timeBatches(name string, calls int, batch, settle func() error, scale func(time.Duration) float64) error {
	vals := make([]float64, 0, probeBatches)
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		if err := batch(); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		t1 := time.Now()
		t.probes = append(t.probes, probeSpan{Probe: name, Start: t0.Sub(t.origin), End: t1.Sub(t.origin), Calls: calls})
		vals = append(vals, scale(t1.Sub(t0)))
		if settle != nil {
			if err := settle(); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
		}
	}
	t.probeValues[name] = quantile(vals, 0.5)
	return nil
}

// sampleRule returns a rule the replay installed on region 0's access
// switch, so codec probes encode the workload's own rule size.
func sampleRule(rg *rig) dataplane.Rule {
	if sw := rg.cl.Net.Switch("A0"); sw != nil {
		for _, r := range sw.Table.Rules() {
			if r.Owner != "" && len(r.Actions) > 0 {
				return *r
			}
		}
	}
	// No bearer left on A0: a classification rule of the same shape.
	return dataplane.Rule{Priority: 100, Owner: "L0", Version: 1,
		Match:   dataplane.Match{InPort: 1, MatchNoLabel: true, UE: "ue0000001", DstPrefix: "pfx0", QoS: -1},
		Actions: []dataplane.Action{dataplane.Push(7), dataplane.Output(2)}}
}

// fenceProbe times one rule install plus its barrier fence through
// DialDevice over a zero-delay in-memory pipe to a fresh SwitchAgent.
func (t *tracer) fenceProbe(rule dataplane.Rule) error {
	net := dataplane.NewNetwork()
	sw := net.AddSwitch("P0")
	agent := southbound.NewSwitchAgent(net, sw)
	ctrlEnd, devEnd := southbound.Pipe(256)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = agent.Serve(devEnd) // returns once the pipe closes below
	}()
	cd, err := core.DialDevice(ctrlEnd, "probe")
	if err != nil {
		_ = devEnd.Close() // the dial error is the one to report
		<-served
		return fmt.Errorf("probe fence: dial: %w", err)
	}
	defer func() {
		_ = cd.Close() // teardown; pending work fails with ErrClosed by design
		<-served
		cd.WaitStopped()
	}()
	rule.Demand = 0 // the probe switch has no links to reserve on
	rule.Owner = "probe"
	version := 0
	return t.timeBatches("southbound.fence_rt_us", fenceCalls, func() error {
		for i := 0; i < fenceCalls; i++ {
			version++
			rule.Version = version
			if err := cd.InstallRule(rule); err != nil {
				return err
			}
		}
		return nil
	}, func() error { return cd.RemoveRules("probe") },
		func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / fenceCalls })
}

// netemProbe times fixed-delay Link.Send on a private wall link; after
// each batch it waits, untimed, for every frame to be delivered.
func (t *tracer) netemProbe() error {
	var delivered atomic.Int64
	link := netem.NewWallLink(func(interface{}) { delivered.Add(1) },
		netem.Profile{Delay: 200 * time.Microsecond}, nil)
	defer link.Close()
	var sent int64
	return t.timeBatches("netem.send_ns_per_frame", netemFrames, func() error {
		for i := 0; i < netemFrames; i++ {
			if err := link.Send(i, 64); err != nil {
				return err
			}
		}
		sent += netemFrames
		return nil
	}, func() error {
		deadline := time.Now().Add(probeNetemWait)
		for delivered.Load() < sent {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d of %d frames delivered", delivered.Load(), sent)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}, func(d time.Duration) float64 { return float64(d) / netemFrames })
}
