package live

import (
	"fmt"
	"sort"
	"testing"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
)

// TestSimVsLiveComparison is the headline acceptance check: the paper's
// default evaluation scenario (200 nodes, random waypoint, 10 CBR pairs,
// 100 s) run through the simulator and through 200 live UDP daemons on
// loopback, with the live numbers required to sit inside the tolerance
// bands Compare applies. The live side replays the sim's exact trajectories
// and flow schedule, so "sent" must agree exactly; delivery, latency and
// hops absorb transport-order noise. Empirically the two sit within a few
// percent (see EXPERIMENTS.md), far inside the bands.
func TestSimVsLiveComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("200-daemon paper-default fleet is a multi-second run")
	}
	sc := experiment.DefaultScenario() // ALERT, N=200, rwp, 10 pairs, 100 s

	simRes, _, err := experiment.RunWorld(sc, nil)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	// Timescale 0.05 gives the coordinator 50 ms of wall clock per emulated
	// hello interval; below that the 200-node topology push loop can fall
	// behind on a loaded machine and frames range-drop against stale
	// positions, which is transport-emulation noise, not protocol behavior.
	liveSum, err := RunFleet(sc, 0.05)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}

	cmp := Compare(simRes, liveSum)
	t.Logf("\n%s", cmp)
	if !cmp.OK {
		for _, c := range cmp.Checks {
			if !c.OK {
				t.Errorf("%s out of band: sim %.4f live %.4f tol %.3g (rel=%v)",
					c.Name, c.Sim, c.Live, c.Tol, c.Rel)
			}
		}
	}
	if liveSum.Delivered == 0 {
		t.Fatal("live fleet delivered nothing")
	}
}

// TestFiveNodeExactPath freezes a 5-node static topology (seed 15,
// 600x600 — chosen so the sim delivers 10/10 with a 4-hop longest GPSR
// path) and requires the live fleet to reproduce every packet's path and
// hop count exactly. With no loss, static positions and deterministic
// forwarding there is no transport noise to absorb: any divergence means
// the live router and the sim router disagree on routing semantics.
//
// ALERT runs at the topology's derived depth: with N = 5 and k = 6, H = 0,
// so Z_D is the whole field and every packet zone-delivers from its
// source. Deeper H cannot be compared exactly, because the sim draws
// temporary destinations from one protocol-wide rng stream while each
// daemon draws from its own.
func TestFiveNodeExactPath(t *testing.T) {
	for _, p := range []experiment.ProtocolName{experiment.GPSR, experiment.ALERT} {
		t.Run(string(p), func(t *testing.T) { exactPath(t, p) })
	}
}

func exactPath(t *testing.T, protocol experiment.ProtocolName) {
	sc := experiment.DefaultScenario()
	sc.Protocol = protocol
	sc.Seed = 15
	sc.N = 5
	sc.Field = geo.Rect{Max: geo.Point{X: 600, Y: 600}}
	sc.Mobility = experiment.Static
	sc.Duration = 10
	sc.DrainTime = 2
	sc.Pairs = 2
	sc.Interval = 2
	sc.LocUpdates = false

	simRes, w, err := experiment.RunWorld(sc, nil)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	if simRes.DeliveryRate != 1 {
		t.Fatalf("frozen topology regressed: sim delivery rate %.2f, want 1.00", simRes.DeliveryRate)
	}

	// Index sim routes by (src, dst, k-th packet of that pair in send
	// order); live keys deliveries by (flow, seq) where flow is the pair
	// index, and DeriveFlows replays the same ChoosePairs draw, so the k-th
	// live seq of a pair is the k-th sim record of the same (src, dst).
	type pairKey struct{ src, dst int }
	type route struct {
		path []int
		hops int
	}
	simRoutes := map[pairKey][]route{}
	recs := w.Proto.Collector().Records()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].SentAt < recs[j].SentAt })
	for _, r := range recs {
		if !r.Delivered {
			t.Fatalf("frozen topology regressed: packet %d (%d->%d) undelivered", r.Seq, r.Src, r.Dst)
		}
		k := pairKey{int(r.Src), int(r.Dst)}
		path := make([]int, len(r.Path))
		for i, id := range r.Path {
			path[i] = int(id)
		}
		simRoutes[k] = append(simRoutes[k], route{path, r.Hops})
	}

	liveSum, err := RunFleet(sc, 0.01)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	if liveSum.Sent != simRes.Sent {
		t.Fatalf("sent mismatch: sim %d live %d", simRes.Sent, liveSum.Sent)
	}
	if liveSum.Delivered != liveSum.Sent {
		t.Fatalf("live delivered %d of %d on the lossless frozen topology", liveSum.Delivered, liveSum.Sent)
	}

	// Deliveries are sorted by (flow, seq) in collect, so per-pair order is
	// send order — walk each pair's queue of sim routes in step.
	next := map[pairKey]int{}
	for _, dv := range liveSum.Deliveries {
		k := pairKey{dv.Src, dv.Dst}
		i := next[k]
		if i >= len(simRoutes[k]) {
			t.Fatalf("live pair %d->%d delivered more packets than sim recorded", dv.Src, dv.Dst)
		}
		next[k] = i + 1
		sim := simRoutes[k][i]
		if fmt.Sprint(dv.Path) != fmt.Sprint(sim.path) || dv.Hops != sim.hops {
			t.Errorf("pair %d->%d packet %d route diverged:\n  sim:  %v (%d hops)\n  live: %v (%d hops)",
				dv.Src, dv.Dst, i, sim.path, sim.hops, dv.Path, dv.Hops)
		}
	}
	for k, routes := range simRoutes {
		if next[k] != len(routes) {
			t.Errorf("pair %d->%d: live delivered %d packets, sim %d", k.src, k.dst, next[k], len(routes))
		}
	}
	t.Logf("exact path: %d packets, every path and hop count identical (range %.0f m)",
		liveSum.Delivered, medium.DefaultParams().Range)
}
