package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dataplane"
	"repro/internal/metrics"
	"repro/internal/southbound"
)

// Southbound rule-programming observability. Batches and barriers count
// wire messages on ConnDevices; sync_roundtrips counts every blocking
// request round trip (the quantity batching exists to reduce). The
// histograms time whole logical operations — path setup, teardown,
// reroute — and individual batch flushes.
var (
	connBatches        = metrics.NewCounter("core.southbound.batches")
	connFlowMods       = metrics.NewCounter("core.southbound.flowmods")
	connBarriers       = metrics.NewCounter("core.southbound.barriers")
	connBarrierRetries = metrics.NewCounter("core.southbound.barrier_retries")
	connSyncRoundTrips = metrics.NewCounter("core.southbound.sync_roundtrips")
	// Adaptive-timeout observability: every accepted RTT sample, the
	// attempt timeouts the estimator armed, and barrier replies that
	// arrived after their fence expired (the spurious-retry fingerprint
	// adaptive timeouts exist to suppress).
	connRTTSamples          = metrics.NewCounter("core.southbound.rtt_samples")
	connRTTObserved         = metrics.NewDurationHist("core.southbound.rtt_observed")
	connRTTTimeout          = metrics.NewDurationHist("core.southbound.rtt_timeout")
	connStaleBarrierReplies = metrics.NewCounter("core.southbound.rtt_stale_replies")
	flushRollbacks          = metrics.NewCounter("core.southbound.flush_rollbacks")
	flushLatency            = metrics.NewDurationHist("core.southbound.flush_latency")
	setupLatency            = metrics.NewDurationHist("core.pathsetup.setup_latency")
	teardownLatency         = metrics.NewDurationHist("core.pathsetup.teardown_latency")
	rerouteLatency          = metrics.NewDurationHist("core.pathsetup.reroute_latency")
)

// BatchInstaller is the optional Device extension for batched rule
// programming: all rules land on the device fenced by at most one
// barrier round trip. On error the device may hold any prefix of the
// batch — callers are expected to roll the affected owner/version back
// with RemoveRulesVersion. Devices without the extension fall back to
// per-rule InstallRule (see installRules).
type BatchInstaller interface {
	InstallRules(rules []dataplane.Rule) error
}

// installRules programs a batch of rules on one device, via the
// BatchInstaller fast path when available.
func installRules(d Device, rules []dataplane.Rule) error {
	if bi, ok := d.(BatchInstaller); ok {
		return bi.InstallRules(rules)
	}
	for _, r := range rules {
		if err := d.InstallRule(r); err != nil {
			return err
		}
	}
	return nil
}

// ruleBatch accumulates the rules of one logical operation grouped per
// device, preserving first-touch device order so flushes install along
// the path direction. Batches are pooled (getBatch/putBatch): every
// device copies the rules it is handed before its issue returns —
// in-process devices by value, ConnDevice into FlowMods — so a batch is
// free for reuse as soon as its fan-out has been issued.
type ruleBatch struct {
	// devs lists the touched devices in first-touch order; rules[i] is
	// the batch for devs[i], and handles[i] its resolved Device (filled
	// by prepare).
	devs    []dataplane.DeviceID
	rules   [][]dataplane.Rule
	handles []Device
	size    int
}

var batchPool = sync.Pool{New: func() any { return new(ruleBatch) }}

// getBatch returns an empty batch from the pool.
func getBatch() *ruleBatch { return batchPool.Get().(*ruleBatch) }

// putBatch empties b, keeping its per-device rule slices for the next
// user, and returns it to the pool.
func putBatch(b *ruleBatch) {
	for i := range b.rules {
		clear(b.rules[i])
		b.rules[i] = b.rules[i][:0]
	}
	clear(b.handles)
	b.devs, b.rules, b.handles, b.size = b.devs[:0], b.rules[:0], b.handles[:0], 0
	batchPool.Put(b)
}

// add appends r to dev's batch. A batch touches a handful of devices (one
// path, or one classification fan-out), so a linear scan finds dev.
func (b *ruleBatch) add(dev dataplane.DeviceID, r dataplane.Rule) {
	i := slices.Index(b.devs, dev)
	if i < 0 {
		i = len(b.devs)
		b.devs = append(b.devs, dev)
		if i < cap(b.rules) {
			b.rules = b.rules[:i+1] // revives the emptied slice putBatch kept
		} else {
			b.rules = append(b.rules, nil)
		}
	}
	b.rules[i] = append(b.rules[i], r)
	b.size++
}

// completer receives the outcome of one asynchronously issued device
// operation, exactly once.
type completer interface {
	complete(err error)
}

// errChan is the completer of a caller that blocks on one operation.
type errChan chan error

func (c errChan) complete(err error) { c <- err }

// asyncDevice is the optional Device extension for operations whose
// outcome arrives later: the device issues the operation and reports
// through done exactly once — possibly before the call returns. A
// ConnDevice issues mods and a fence and completes from its pump or
// deadline goroutine; a logicalDevice issues the child's translation
// through the child's own fan-out. Completions run no routing, rollback
// or Send: they only record the outcome and wake the waiter.
type asyncDevice interface {
	installRulesAsync(rules []dataplane.Rule, done completer)
	removeRulesAsync(cmd southbound.FlowModCommand, owner string, version int, done completer)
}

// fanOp is one rule-programming action fanned out across devices: the
// install of a batch's per-device rules, or one delete command.
type fanOp struct {
	// batch, when non-nil, makes the op an install of batch.rules[i] on
	// the i-th device; otherwise the op is the delete cmd.
	batch   *ruleBatch
	cmd     southbound.FlowModCommand
	owner   string
	version int
}

// run applies the op to device i synchronously.
func (op fanOp) run(d Device, i int) error {
	if op.batch != nil {
		return installRules(d, op.batch.rules[i])
	}
	switch op.cmd {
	case southbound.FlowDeleteOwner:
		return d.RemoveRules(op.owner)
	case southbound.FlowDeleteOwnerBefore:
		return d.RemoveRulesBefore(op.owner, op.version)
	default:
		return d.RemoveRulesVersion(op.owner, op.version)
	}
}

// fanOut is the one device fan-out of rule programming. It visits devs in
// slice order on the caller's goroutine and starts no goroutine: an
// asyncDevice issues its operation and completes into j later, so N
// devices behind wire fences cost about one round trip of wall time;
// every other device runs inline. An install stops issuing after the
// first error recorded (the caller rolls the whole batch back); a delete
// is a best-effort scrub and visits every device. Completions already
// issued are always joined. In-process trees complete inline, in order,
// which is what makes a seed replay deterministic.
func fanOut(devs []Device, op fanOp, j *fanJoin) {
	for i, d := range devs {
		if op.batch != nil && j.failed() {
			return
		}
		ad, ok := d.(asyncDevice)
		if !ok {
			j.record(op.run(d, i))
			continue
		}
		j.add()
		if op.batch != nil {
			ad.installRulesAsync(op.batch.rules[i], j)
		} else {
			ad.removeRulesAsync(op.cmd, op.owner, op.version, j)
		}
	}
}

// fanJoin joins one fan-out. The issuer holds one count while issuing and
// every asynchronously issued device holds one until it completes; the
// first error recorded wins. The outcome goes to a synchronous waiter
// (wait) or, for a fan-out issued on behalf of a parent's device
// operation, to the parent's completer (release). Joins are pooled: a
// join is recycled by whoever takes its outcome, the waiter or the last
// completion, and must not be touched after wait or release.
type fanJoin struct {
	mu      sync.Mutex
	pending int
	err     error
	// parked is set when the waiter sleeps on wake, which the last
	// completion then signals once.
	parked bool
	wake   chan struct{}
	parent completer
}

var joinPool = sync.Pool{New: func() any { return &fanJoin{wake: make(chan struct{}, 1)} }}

// newJoin returns a join holding the issuer's count; parent is nil for a
// synchronous waiter.
func newJoin(parent completer) *fanJoin {
	j := joinPool.Get().(*fanJoin)
	j.pending, j.err, j.parked, j.parent = 1, nil, false, parent
	return j
}

func (j *fanJoin) add() {
	j.mu.Lock()
	j.pending++
	j.mu.Unlock()
}

func (j *fanJoin) record(err error) {
	if err == nil {
		return
	}
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

func (j *fanJoin) failed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err != nil
}

// complete implements completer for one asynchronously issued device.
func (j *fanJoin) complete(err error) {
	j.mu.Lock()
	if err != nil && j.err == nil {
		j.err = err
	}
	j.pending--
	if j.pending > 0 {
		j.mu.Unlock()
		return
	}
	parked, parent := j.parked, j.parent
	err = j.err
	j.mu.Unlock()
	if parked {
		j.wake <- struct{}{}
		return
	}
	if parent != nil {
		j.recycle()
		parent.complete(err)
	}
}

// release hands back the issuer's count of a join reporting to a parent.
func (j *fanJoin) release() { j.complete(nil) }

// wait hands back the issuer's count, blocks until every issued device
// has completed, and returns the first error recorded.
func (j *fanJoin) wait() error {
	j.mu.Lock()
	j.pending--
	j.parked = j.pending > 0
	parked := j.parked
	j.mu.Unlock()
	if parked {
		<-j.wake
	}
	err := j.err // the last completion happened before the wake
	j.recycle()
	return err
}

func (j *fanJoin) recycle() {
	j.err, j.parent = nil, nil
	joinPool.Put(j)
}

// removeAll fans one delete command out over devs and waits for every
// device, returning the first error.
func removeAll(devs []Device, cmd southbound.FlowModCommand, owner string, version int) error {
	j := newJoin(nil)
	fanOut(devs, fanOp{cmd: cmd, owner: owner, version: version}, j)
	return j.wait()
}

// prepare resolves every device of b up front (so an unknown device fails
// the operation before anything is installed) and stamps owner and
// version onto every rule.
func (c *Controller) prepare(b *ruleBatch, owner string, version int) error {
	c.mu.Lock()
	for _, id := range b.devs {
		d := c.devices[id]
		if d == nil {
			c.mu.Unlock()
			return fmt.Errorf("core: %s: path device %s not attached", c.ID, id)
		}
		b.handles = append(b.handles, d)
	}
	c.stats.RulesInstalled += b.size
	c.mu.Unlock()
	for _, rules := range b.rules {
		for i := range rules {
			rules[i].Owner = owner
			rules[i].Version = version
		}
	}
	return nil
}

// flushBatch programs an accumulated batch and waits for it: the
// per-device batches fan out across the devices (fanOut), each fenced by
// a single barrier on a ConnDevice. On any failure every device of the
// batch is scrubbed of exactly this version (RemoveRulesVersion), which
// cannot disturb older versions of the same owner still carrying traffic
// mid-update (§6). The caller still owns b.
func (c *Controller) flushBatch(b *ruleBatch, owner string, version int) error {
	if b == nil || b.size == 0 {
		return nil
	}
	start := time.Now() //softmow:allow determinism wall clock feeds the flush-latency histogram only, never control decisions
	if err := c.prepare(b, owner, version); err != nil {
		return err
	}
	j := newJoin(nil)
	fanOut(b.handles, fanOp{batch: b}, j)
	if err := j.wait(); err != nil {
		flushRollbacks.Inc()
		// The install error is what the caller acts on; the scrub is
		// best-effort and idempotent (version filters match nothing once
		// removed), so its own error carries no extra signal. It stays
		// version-exact: only the batches this flush fenced are removed.
		//softmow:allow errdiscard rollback is best-effort, the install error propagates
		_ = removeAll(b.handles, southbound.FlowDeleteOwnerVersion, owner, version)
		return err
	}
	flushLatency.Observe(time.Since(start))
	return nil
}
