// Anonymity experiments: the attack-versus-defence measurements behind
// Section 3's claims. Each function builds a world, mounts one of the
// adversary models, runs a communication session, and reports how much the
// attacker learned.

package experiment

import (
	"alertmanet/internal/adversary"
	"alertmanet/internal/core"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
)

// IntersectionResult reports one intersection-attack session (Section 3.3).
type IntersectionResult struct {
	// Waves is how many per-packet recipient sets the attacker observed.
	Waves int
	// Candidates is the attacker's surviving destination-candidate count
	// (nodes present in every observed recipient set).
	Candidates int
	// DstCandidate reports whether the true destination survived the
	// intersection — the attack's necessary condition. The two-step
	// multicast defeats the attack precisely by making D miss some
	// observed recipient sets.
	DstCandidate bool
	// Exposed reports whether the attacker pinned down D exactly.
	Exposed bool
}

// IntersectionAttack runs a long S-D session under ALERT and mounts the
// recipient-set intersection attack of Section 3.3: the attacker records,
// for every packet, the set of nodes observed receiving the initial zone
// delivery, and intersects those sets across the session. Under plain
// broadcasting D is in every set, and as other nodes drift out of the zone
// the intersection converges on D; with the two-step m-of-k multicast the
// attacker's per-packet set is the m holders — D is regularly absent, the
// intersection loses it, and the attack is foiled (Fig. 5c).
func IntersectionAttack(seed int64, packets int, guard bool) IntersectionResult {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Speed = 2
	sc.Alert.IntersectionGuard = guard
	sc.Alert.HoldRelease = 1.5
	// The send horizon covers the manual session; DrainTime lets the last
	// packets finish, matching Run's policy.
	sc.Duration = float64(packets) * sc.Interval
	w := MustBuild(sc)

	// One fixed pair makes the session worth attacking.
	pairs := w.ChoosePairs()[:1]
	s, d := pairs[0].S, pairs[0].D

	// The attacker attributes each packet's step-one receivers to that
	// packet and — per Section 3.3 — monitors "the change of the members
	// in the destination zone", so only receivers inside the targeted
	// zone enter the per-packet set. Step-two re-broadcasts are
	// time-mixed with the next packet and cannot be attributed (the
	// mechanism's point), so they are not part of any per-packet set.
	waves := map[int]map[medium.NodeID]struct{}{}
	w.Alert.OnZoneRecipients = func(seq, step int, zone geo.Rect, rs []medium.NodeID, t float64) {
		if step != 1 {
			return
		}
		set := waves[seq]
		if set == nil {
			set = map[medium.NodeID]struct{}{}
			waves[seq] = set
		}
		for _, id := range rs {
			if zone.Contains(w.Med.TruePosition(id, t)) {
				set[id] = struct{}{}
			}
		}
	}
	for i := 0; i < packets; i++ {
		at := float64(i) * sc.Interval
		w.Eng.At(at+0.01, func() { w.Proto.Send(s, d, []byte("session")) })
	}
	w.Drain()

	// Intersect all observed sets.
	var cand map[medium.NodeID]struct{}
	for _, set := range waves {
		if cand == nil {
			cand = map[medium.NodeID]struct{}{}
			for id := range set {
				cand[id] = struct{}{}
			}
			continue
		}
		for id := range cand {
			if _, ok := set[id]; !ok {
				delete(cand, id)
			}
		}
	}
	_, dIn := cand[d]
	return IntersectionResult{
		Waves:        len(waves),
		Candidates:   len(cand),
		DstCandidate: dIn,
		Exposed:      dIn && len(cand) == 1,
	}
}

// SourceAnonymityResult reports a notify-and-go measurement (Section 2.6).
type SourceAnonymityResult struct {
	// AnonymitySet is the number of distinct transmitters an observer
	// near the source saw in the send window (eta + 1 with the
	// mechanism, 1 without).
	AnonymitySet int
	// Neighbors is eta, the source's neighbor count.
	Neighbors int
}

// SourceAnonymity sends one packet with or without notify-and-go and counts
// how many candidate transmitters an eavesdropper parked on the source saw
// during the send window.
func SourceAnonymity(seed int64, notifyAndGo bool) SourceAnonymityResult {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Alert.NotifyAndGo = notifyAndGo
	sc.Alert.NotifyT = 5e-3
	sc.Alert.NotifyT0 = 20e-3
	w := MustBuild(sc)
	pairs := w.ChoosePairs()[:1]
	s, d := pairs[0].S, pairs[0].D
	obs := adversary.NewObserver(w.Med, w.Med.PositionNow(s), w.Med.Params().Range)
	w.Eng.At(1.0, func() { w.Proto.Send(s, d, []byte("x")) })
	w.Eng.RunUntil(5)
	// The send window: from the notification until the last back-off.
	window := sc.Alert.NotifyT + sc.Alert.NotifyT0 + 0.05
	return SourceAnonymityResult{
		AnonymitySet: obs.DistinctSenders(1.0, 1.0+window),
		Neighbors:    len(w.Med.Neighbors(s)),
	}
}

// TimingAttackScore runs a CBR session under the given protocol and returns
// the timing-correlation score an attacker observing both endpoints'
// vicinities achieves (Section 3.2). Deterministic shortest-path protocols
// show a near-constant delay signature; ALERT's random routes blur it.
func TimingAttackScore(seed int64, proto ProtocolName, packets int) float64 {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Protocol = proto
	sc.Duration = float64(packets) * sc.Interval
	w := MustBuild(sc)
	pairs := w.ChoosePairs()[:1]
	s, d := pairs[0].S, pairs[0].D

	var corr adversary.TimingCorrelator
	sPos := w.Med.PositionNow(s)
	rangeM := w.Med.Params().Range
	w.Med.TapSend(func(tx medium.Transmission) {
		if tx.From == s && tx.FromPos.Within(sPos, rangeM) {
			corr.AddSend(tx.At)
		}
	})
	w.Med.TapRecv(func(rx medium.Reception) {
		if rx.To == d {
			corr.AddRecv(rx.At)
		}
	})
	for i := 0; i < packets; i++ {
		at := float64(i) * sc.Interval
		w.Eng.At(at+0.01, func() { w.Proto.Send(s, d, []byte("x")) })
	}
	w.Drain()
	return corr.Score(2e-3)
}

// InterceptionExperiment measures Section 3.1's DoS/interception claim: a
// fixed set of compromised nodes placed on the first observed route
// captures every subsequent GPSR packet but only a fraction of ALERT's.
func InterceptionExperiment(seed int64, proto ProtocolName, packets, compromised int) float64 {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Protocol = proto
	sc.Mobility = Static // the attacker's best case: a frozen topology
	sc.Duration = float64(packets) * sc.Interval
	w := MustBuild(sc)
	pairs := w.ChoosePairs()[:1]
	s, d := pairs[0].S, pairs[0].D
	for i := 0; i < packets; i++ {
		at := float64(i) * sc.Interval
		w.Eng.At(at+0.01, func() { w.Proto.Send(s, d, []byte("x")) })
	}
	w.Drain()

	var tracker adversary.RouteTracker
	recs := w.Proto.Collector().Records()
	for _, r := range recs {
		if r.Delivered {
			tracker.AddRoute(relaysOnly(r.Path, s, d))
		}
	}
	if tracker.Routes() < 2 {
		return 0
	}
	// Compromise the relays of the FIRST observed route.
	first := relaysOnly(recs[0].Path, s, d)
	if len(first) > compromised {
		first = first[:compromised]
	}
	return tracker.InterceptionProbability(first)
}

// DoSResult reports a Section 3.1 denial-of-service experiment.
type DoSResult struct {
	// BaselineDelivery is the delivery rate before any compromise.
	BaselineDelivery float64
	// UnderAttackDelivery is the delivery rate after the adversary
	// compromises relays of the first observed route (the compromised
	// nodes keep acting as neighbors but sink every packet).
	UnderAttackDelivery float64
	// Compromised is how many nodes were actually subverted.
	Compromised int
}

// DoSAttack measures Section 3.1's claim that ALERT's communication "cannot
// be completely stopped by compromising certain nodes": in a static network
// the adversary watches one packet, compromises up to `compromise` of its
// relays, and the session continues. GPSR keeps routing into the same dead
// relays; ALERT's random forwarders route around them.
func DoSAttack(seed int64, proto ProtocolName, packets, compromise int) DoSResult {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Protocol = proto
	sc.Mobility = Static
	sc.Duration = float64(packets) * sc.Interval
	sc.DrainTime = 20 // the post-compromise phase needs longer to settle
	w := MustBuild(sc)
	pairs := w.ChoosePairs()[:1]
	s, d := pairs[0].S, pairs[0].D

	// Phase one: half the packets, clean network.
	half := packets / 2
	for i := 0; i < half; i++ {
		at := float64(i) * sc.Interval
		w.Eng.At(at+0.01, func() { w.Proto.Send(s, d, []byte("x")) })
	}
	// Between phases: compromise the first delivered route's relays.
	res := DoSResult{}
	w.Eng.At(float64(half)*sc.Interval-0.5, func() {
		for _, r := range w.Proto.Collector().Records() {
			if !r.Delivered {
				continue
			}
			for _, id := range relaysOnly(r.Path, s, d) {
				if res.Compromised >= compromise {
					break
				}
				if !w.Med.Compromised(id) {
					w.Med.Compromise(id)
					res.Compromised++
				}
			}
			break
		}
	})
	// Phase two: the remaining packets, relays subverted.
	for i := half; i < packets; i++ {
		at := float64(i) * sc.Interval
		w.Eng.At(at+0.01, func() { w.Proto.Send(s, d, []byte("x")) })
	}
	w.Drain()

	recs := w.Proto.Collector().Records()
	var del1, del2, n1, n2 int
	for i, r := range recs {
		if i < half {
			n1++
			if r.Delivered {
				del1++
			}
		} else {
			n2++
			if r.Delivered {
				del2++
			}
		}
	}
	if n1 > 0 {
		res.BaselineDelivery = float64(del1) / float64(n1)
	}
	if n2 > 0 {
		res.UnderAttackDelivery = float64(del2) / float64(n2)
	}
	return res
}

func relaysOnly(path []medium.NodeID, s, d medium.NodeID) []medium.NodeID {
	var out []medium.NodeID
	for _, id := range path {
		if id != s && id != d {
			out = append(out, id)
		}
	}
	return out
}

// TradeoffResult compares the two intersection-attack remedies of
// Section 3.3: ZAP's growing anonymity zone versus ALERT's two-step
// multicast.
type TradeoffResult struct {
	// HopsFirst and HopsLast are mean hops/packet over the session's
	// first and last three packets — growth means the remedy's overhead
	// scales with session length.
	HopsFirst, HopsLast float64
	// Delivery is the session's delivery rate.
	Delivery float64
}

// IntersectionRemedyCost runs one long session under either ZAP with zone
// enlargement (alert=false) or ALERT with the intersection guard
// (alert=true) and reports how the per-packet cost evolves. The paper's
// point: ZAP's remedy "increases the communication overhead" per packet,
// while ALERT's holds it flat.
func IntersectionRemedyCost(seed int64, packets int, alert bool) TradeoffResult {
	sc := DefaultScenario()
	sc.Seed = seed
	if alert {
		sc.Protocol = ALERT
		sc.Alert.IntersectionGuard = true
		sc.Alert.HoldRelease = 1.5
	} else {
		sc.Protocol = ZAP
		sc.Zap.EnlargePerPacket = 40
	}
	sc.Duration = float64(packets) * sc.Interval
	w := MustBuild(sc)
	pairs := w.ChoosePairs()[:1]
	s, d := pairs[0].S, pairs[0].D
	for i := 0; i < packets; i++ {
		at := float64(i) * sc.Interval
		w.Eng.At(at+0.01, func() { w.Proto.Send(s, d, []byte("session")) })
	}
	w.Drain()
	recs := w.Proto.Collector().Records()
	var res TradeoffResult
	if len(recs) < 6 {
		return res
	}
	for i := 0; i < 3; i++ {
		res.HopsFirst += float64(recs[i].Hops) / 3
		res.HopsLast += float64(recs[len(recs)-1-i].Hops) / 3
	}
	res.Delivery = w.Proto.Collector().DeliveryRate()
	return res
}

// RemainingInZone tracks, during a live ALERT session, how many of the
// nodes originally in Z_D remain there over time — the protocol-level
// counterpart of Fig. 12 (RemainingNodesSim measures pure mobility).
func RemainingInZone(seed int64, n int, speed float64, times []float64) []int {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.N = n
	sc.Speed = speed
	w := MustBuild(sc)
	pairs := w.ChoosePairs()[:1]
	d := pairs[0].D
	zone := w.Alert.DestZoneFor(d)
	var initial []medium.NodeID
	for id := 0; id < n; id++ {
		if zone.Contains(w.Med.TruePosition(medium.NodeID(id), 0)) {
			initial = append(initial, medium.NodeID(id))
		}
	}
	out := make([]int, len(times))
	for i, t := range times {
		t := t
		i := i
		w.Eng.At(t, func() {
			remain := 0
			for _, id := range initial {
				if zone.Contains(w.Med.PositionNow(id)) {
					remain++
				}
			}
			out[i] = remain
		})
	}
	w.Eng.RunUntil(times[len(times)-1] + 1)
	return out
}

// ZoneOf exposes the destination zone geometry for a pair (examples use it
// to narrate what the protocol is doing).
func ZoneOf(w *World, d medium.NodeID) geo.Rect {
	if w.Alert == nil {
		cfg := core.DefaultConfig()
		h := cfg.H
		if h <= 0 {
			h = geo.PartitionsForK(w.Net.N(), cfg.K)
		}
		e, _ := w.Loc.Lookup(d)
		return geo.DestZone(w.Net.Field(), e.Pos, h, geo.Vertical)
	}
	return w.Alert.DestZoneFor(d)
}

// SourceLocationError runs one send and returns how far an eavesdropper's
// triangulated source estimate lands from the true source. Without
// notify-and-go the first transmission pinpoints S; with it, the covers
// drag the estimate toward the neighborhood centroid.
func SourceLocationError(seed int64, notifyAndGo bool) float64 {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Alert.NotifyAndGo = notifyAndGo
	sc.Alert.NotifyT = 5e-3
	sc.Alert.NotifyT0 = 20e-3
	w := MustBuild(sc)
	pairs := w.ChoosePairs()[:1]
	s, d := pairs[0].S, pairs[0].D
	sPos := w.Med.PositionNow(s)
	obs := adversary.NewObserver(w.Med, sPos, w.Med.Params().Range)
	w.Eng.At(1.0, func() { w.Proto.Send(s, d, []byte("x")) })
	w.Eng.RunUntil(5)
	window := sc.Alert.NotifyT + sc.Alert.NotifyT0 + 0.05
	est, ok := obs.EstimateSource(1.0, 1.0+window)
	if !ok {
		return -1
	}
	return est.Dist(sPos)
}
