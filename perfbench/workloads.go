package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/northbound"
	"repro/internal/southbound"
	"repro/internal/workload"
)

// spec is one benchmark workload; BENCHMARK.json says why each exists.
// Every workload replays the same schedule (seed, events and the cluster
// shape in baseConfig); only the transport and the pacing differ, so any
// gap between workloads comes from the layers, not from the inputs.
//
// The harness sizes are part of each workload's definition and must not
// be tuned to move a metric (README.md, "Harness sizing"):
//   - the engine's open mode runs one op at a time per lane, so the
//     default 8 lanes sustain only about 5.4k of 8k offered ev/s; wan_open
//     needs 32 lanes to keep up with its arrival rate;
//   - direct_closed at the default 8 lanes x 4 deep oversubscribes two
//     CPUs and measures run-queue wait, so it runs one op per CPU.
//
// rounds, the number of rounds a run measures at least, is part of the
// definition too: it fixes the work of a run, so both sides of a
// comparison measure the same number of chunks. Each value gives a timed
// window of 12 to 25 s on a 2-CPU machine. Workloads whose figures vary
// more from chunk to chunk (the closed loops) measure more rounds.
type spec struct {
	name string
	mode workload.Mode
	// lanes is the engine's Workers; window its MaxInFlight (closed loop:
	// lanes x per-lane depth; open loop: the admission window).
	lanes, window int
	// rate is the open-loop arrival rate in ops per second.
	rate float64
	// delay is the one-way netem delay on every leaf-to-switch control
	// channel; 0 attaches in-process SwitchDevices with direct calls.
	delay time.Duration
	// tree attaches each leaf to the root over the northbound binary wire
	// (TCP loopback) instead of in-process calls.
	tree bool
	// rounds is the least number of rounds a run measures.
	rounds int
	// canonical replays the canonical 200 000-op schedule from op 0
	// instead of the default prefix and window (main.go).
	canonical bool
}

var workloads = []spec{
	{name: "wan_closed", mode: workload.ModeClosed, lanes: 8, window: 32, delay: 200 * time.Microsecond, rounds: 3},
	{name: "wan_open", mode: workload.ModeOpen, lanes: 32, window: 64, rate: 8000, delay: 200 * time.Microsecond, rounds: 1},
	{name: "direct_closed", mode: workload.ModeClosed, lanes: 2, window: 2, rounds: 10},
	// direct_serial is direct_closed with one op in flight: each op's
	// own cost, with no other op to queue behind.
	{name: "direct_serial", mode: workload.ModeClosed, lanes: 1, window: 1, rounds: 8},
	// direct_canonical is direct_closed over the whole canonical run, so
	// its tables grow from empty to about 34 000 attached UEs.
	{name: "direct_canonical", mode: workload.ModeClosed, lanes: 2, window: 2, rounds: 5, canonical: true},
	{name: "tree_wire", mode: workload.ModeClosed, lanes: 8, window: 32, delay: 200 * time.Microsecond, tree: true, rounds: 2},
}

func lookupWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// baseConfig is the schedule and cluster shape every workload shares:
// 4 regions x 4 BSes, 100k UEs, 20 % remote-prefix attaches, 16 UE
// shards, the default op mix.
func baseConfig(seed int64, events int) workload.Config {
	return workload.Config{
		Seed: seed, Regions: 4, BSPerRegion: 4, UEs: 100_000, Events: events,
		Shards: 16, RemotePrefixShare: 0.2,
	}
}

// config is the workload's engine configuration over the shared base.
func (w spec) config(seed int64, events int) workload.Config {
	cfg := baseConfig(seed, events)
	cfg.Mode = w.mode
	cfg.Workers = w.lanes
	cfg.MaxInFlight = w.window
	cfg.RatePerSec = w.rate
	cfg.ControlDelay = w.delay
	return cfg
}

// prefixConfig is the engine configuration of a round's untimed prefix:
// the workload's own, except that an open loop builds its population in
// wan_closed's closed loop rather than at its paced rate.
func (w spec) prefixConfig(cfg workload.Config) workload.Config {
	if w.mode == workload.ModeClosed {
		return cfg
	}
	cfg.Mode, cfg.Workers, cfg.MaxInFlight, cfg.RatePerSec = workload.ModeClosed, 8, 32, 0
	return cfg
}

// transport names the control channels for provenance.
func (w spec) transport() string {
	sb := "southbound: in-process direct calls"
	if w.delay > 0 {
		sb = fmt.Sprintf("southbound: binary protocol over in-memory pipes, %v one-way netem delay", w.delay)
	}
	nb := "northbound: in-process calls"
	if w.tree {
		nb = "northbound: binary wire over TCP loopback (4 sockets)"
	}
	return sb + "; " + nb
}

// rig is one built cluster; engines are made on it per replay phase.
type rig struct {
	cl     *workload.Cluster
	root   *core.Controller
	leaves []*core.Controller
	// nbConns and nbDevs are the root-side northbound sockets and child
	// devices of a tree_wire rig; empty otherwise.
	nbConns []*countConn
	nbDevs  []*core.ConnDevice
	close   func()
}

// controllers lists the root then the leaves in region order.
func (r *rig) controllers() []*core.Controller {
	return append([]*core.Controller{r.root}, r.leaves...)
}

// stateDigest composes the replay state digest the way
// workload.StateDigest does for an in-process cluster: the root's
// section first, then each leaf's in region order.
func (r *rig) stateDigest() string {
	cs := r.controllers()
	sections := make([][]byte, len(cs))
	for i, c := range cs {
		sections[i] = workload.StateSection(c)
	}
	return workload.ComposeStateDigest(sections)
}

// buildRig constructs and bootstraps the workload's cluster.
func buildRig(w spec, cfg workload.Config) (*rig, error) {
	if w.tree {
		return buildTreeRig(cfg)
	}
	_, cl, err := workload.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &rig{cl: cl, root: cl.Hier.Root, leaves: cl.Hier.Leaves, close: cl.Close}, nil
}

// buildTreeRig builds the cluster as one RegionProc owning every region,
// each leaf attached to a launcher-side root over its own northbound TCP
// socket — the distributed build without the process boundary.
func buildTreeRig(cfg workload.Config) (_ *rig, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	p, err := workload.NewRegionProc(workload.RegionConfig{
		Config: cfg, Lo: 0, Hi: cfg.Regions, Addr: ln.Addr().String(),
	})
	if err != nil {
		return nil, err
	}
	r := &rig{root: workload.NewDistRoot(cfg.Regions, cfg.Shards)}
	r.close = func() {
		for _, d := range r.nbDevs {
			_ = d.Close() // teardown: pending work fails with ErrClosed by design
		}
		p.Close()
		for _, d := range r.nbDevs {
			d.WaitStopped()
		}
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	for k := 0; k < cfg.Regions; k++ {
		errCh := make(chan error, 1)
		go func(k int) { errCh <- p.ConnectRegion(k) }(k)
		nc, err := ln.Accept()
		if err != nil {
			ln.Close()
			<-errCh
			return nil, fmt.Errorf("accept region %d: %w", k, err)
		}
		cc := &countConn{Conn: nc}
		d, err := northbound.AttachRemoteChild(r.root, southbound.NewBinConn(cc))
		if err != nil {
			nc.Close()
			<-errCh
			return nil, fmt.Errorf("attach region %d: %w", k, err)
		}
		r.nbConns = append(r.nbConns, cc)
		r.nbDevs = append(r.nbDevs, d)
		if err := <-errCh; err != nil {
			return nil, fmt.Errorf("connect region %d: %w", k, err)
		}
	}
	if err := workload.FinishDistRoot(r.root, r.nbDevs); err != nil {
		return nil, err
	}
	for k := 0; k < cfg.Regions; k++ {
		if err := p.Propagate(k); err != nil {
			return nil, fmt.Errorf("propagate region %d: %w", k, err)
		}
	}
	r.cl = p.Cluster()
	for k := 0; k < cfg.Regions; k++ {
		r.leaves = append(r.leaves, r.cl.Regions[k].Leaf)
	}
	return r, nil
}

// countConn counts the root side of one northbound socket. It wraps the
// net.Conn rather than the southbound.Conn so the binary codec above it
// still offers write deadlines to the ConnDevice.
type countConn struct {
	net.Conn
	written, read, writes atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.writes.Add(1)
	c.written.Add(int64(n))
	return n, err
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}

// nbCounts sums the root-side northbound socket counters.
type nbCounts struct {
	Bytes  int64 `json:"bytes"`
	Writes int64 `json:"writes"`
}

func (r *rig) nbCounts() nbCounts {
	var n nbCounts
	for _, c := range r.nbConns {
		n.Bytes += c.written.Load() + c.read.Load()
		n.Writes += c.writes.Load()
	}
	return n
}
