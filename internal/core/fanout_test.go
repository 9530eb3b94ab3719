package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/pathimpl"
	"repro/internal/southbound"
)

// goroutineProbe shadows a leaf switch's device and records the highest
// goroutine count seen inside any install on it.
type goroutineProbe struct {
	Device
	mu   sync.Mutex
	peak int
}

func (p *goroutineProbe) InstallRule(r dataplane.Rule) error {
	p.mu.Lock()
	p.peak = max(p.peak, runtime.NumGoroutine())
	p.mu.Unlock()
	return p.Device.InstallRule(r)
}

// TestRootFanOutStartsNoGoroutine checks that a root batch spanning two
// in-process children — a remote-prefix bearer from L1's G-BS to L2's
// egress — is programmed entirely on the caller's goroutine: the
// recursive translation in each child and the leaf installs run inline.
func TestRootFanOutStartsNoGoroutine(t *testing.T) {
	f := buildFig5(t, pathimpl.ModeSwap)
	probes := map[dataplane.DeviceID]*goroutineProbe{}
	for _, leaf := range []*Controller{f.l1, f.l2} {
		for _, d := range leaf.Devices() {
			p := &goroutineProbe{Device: d}
			leaf.AttachDevice(p)
			probes[d.ID()] = p
		}
	}
	before := runtime.NumGoroutine()
	if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: "u1", BS: "b1", Prefix: "pfxFar"}); err != nil {
		t.Fatal(err)
	}
	if f.l1.StatsSnapshot().DelegatedRequests == 0 {
		t.Fatal("the bearer was not delegated to the root")
	}
	for _, leaf := range []*Controller{f.l1, f.l2} {
		if leaf.StatsSnapshot().RulesTranslated == 0 {
			t.Fatalf("%s translated no root rule", leaf.ID)
		}
	}
	for id, p := range probes {
		if p.peak > before {
			t.Fatalf("install on %s ran with %d goroutines, %d before the request", id, p.peak, before)
		}
	}
}

// slowReplies delays every agent→controller message, so each fence
// costs at least one delay of wall time.
type slowReplies struct {
	southbound.Conn
	delay time.Duration
}

func (c slowReplies) Send(m southbound.Msg) error {
	time.Sleep(c.delay)
	return c.Conn.Send(m)
}

// TestSiblingFencesOverlap checks that a root batch spanning two
// children whose switches sit behind slow ConnDevice links costs about
// one child's fence time, not two: the children's fences are issued back
// to back and joined once.
func TestSiblingFencesOverlap(t *testing.T) {
	const delay = 25 * time.Millisecond
	f := buildFig5(t, pathimpl.ModeSwap)
	for _, leaf := range []*Controller{f.l1, f.l2} {
		for _, d := range leaf.Devices() {
			agent := southbound.NewSwitchAgent(f.net, f.net.Switch(d.ID()))
			a, b := southbound.Pipe(64)
			go agent.Serve(slowReplies{Conn: b, delay: delay})
			cd, err := DialDevice(a, leaf.ID)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				cd.Close()
				cd.WaitStopped()
			})
			leaf.AttachDevice(cd)
		}
	}
	portA, okA := f.root.findGBSPort("gA")
	portB, okB := f.root.findGBSPort("gB")
	if !okA || !okB {
		t.Fatal("root does not see both G-BSes")
	}
	// setup times one root path from src to pfxFar's egress (in L2): from
	// gB it crosses L2 only, from gA it crosses both children.
	setup := func(src dataplane.PortRef, ue string) (time.Duration, int) {
		res, err := f.root.Route(RouteRequest{From: src, Prefix: "pfxFar"})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		id, err := f.root.SetupPath(dataplane.Match{InPort: dataplane.PortAny, UE: ue, QoS: -1}, res.Path)
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		rec, _ := f.root.Path(id)
		if err := f.root.TeardownPath(id); err != nil {
			t.Fatal(err)
		}
		return took, len(rec.Devices)
	}
	best := func(src dataplane.PortRef, wantDevs int) time.Duration {
		b := time.Hour
		for i := 0; i < 5; i++ {
			took, devs := setup(src, fmt.Sprintf("u%d", i))
			if devs != wantDevs {
				t.Fatalf("root path from %v crosses %d children, want %d", src, devs, wantDevs)
			}
			b = min(b, took)
		}
		return b
	}
	one := best(portB, 1)
	two := best(portA, 2)
	if one < delay {
		t.Fatalf("a single child's batch took %v, below one reply delay %v", one, delay)
	}
	if two >= one*3/2 {
		t.Fatalf("two children took %v, one child %v: sibling fences did not overlap", two, one)
	}
}

// Allocation budgets for the two ops that run the recursive translation
// on every call: a bearer to a remote prefix, delegated to the root and
// translated into both leaves, and an inter-region handover. Each is the
// count measured with go1.24 on linux/amd64 (43 and 72) plus about 10 %.
const (
	remoteBearerAllocBudget  = 48
	interHandoverAllocBudget = 80
)

func TestRemoteBearerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	f := buildFig5(t, pathimpl.ModeSwap)
	ues := fixtureUEs(101)
	next := 0
	allocs := testing.AllocsPerRun(len(ues)-1, func() {
		if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: ues[next], BS: "b1", Prefix: "pfxFar"}); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("remote-prefix bearer set-up: %.0f allocs/op", allocs)
	if allocs > remoteBearerAllocBudget {
		t.Fatalf("remote-prefix bearer set-up made %.0f allocs/op, budget %d", allocs, remoteBearerAllocBudget)
	}
}

func TestInterRegionHandoverAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	f := buildFig5(t, pathimpl.ModeSwap)
	ues := fixtureUEs(101)
	for _, ue := range ues {
		if _, err := f.l1.HandleBearerRequest(BearerRequest{UE: ue, BS: "b1", Prefix: "pfxFar"}); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(len(ues)-1, func() {
		if err := f.l1.Handover(ues[next], "gB", "b3"); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("inter-region handover: %.0f allocs/op", allocs)
	if allocs > interHandoverAllocBudget {
		t.Fatalf("inter-region handover made %.0f allocs/op, budget %d", allocs, interHandoverAllocBudget)
	}
}

// fixtureUEs names n UEs up front, so naming stays out of the measured
// ops.
func fixtureUEs(n int) []string {
	ues := make([]string, n)
	for i := range ues {
		ues[i] = fmt.Sprintf("u%d", i)
	}
	return ues
}

// TestPathOwnerMatchesFmt pins pathOwner to the "%s/p%d" form it
// replaced, at the digit-count edges.
func TestPathOwnerMatchesFmt(t *testing.T) {
	long := strings.Repeat("region-controller-", 4)
	for _, ctrl := range []string{"", "L1", long} {
		for _, id := range []PathID{0, 9, 10, 9_999_999, 10_000_000, 1<<31 - 1} {
			if got, want := pathOwner(ctrl, id), fmt.Sprintf("%s/p%d", ctrl, id); got != want {
				t.Errorf("pathOwner(%q, %d) = %q, want %q", ctrl, id, got, want)
			}
		}
	}
}
