// Anonymity experiments: the attack-versus-defence measurements behind
// Section 3's claims. Each function builds a world, mounts one of the
// adversary models, runs a communication session, and reports how much the
// attacker learned.

package experiment

import (
	"alertmanet/internal/adversary"
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

	// The attacker attributes each packet's step-one receivers to that
	// packet and — per Section 3.3 — monitors "the change of the members
	// in the destination zone", so only receivers inside the targeted
	// zone enter the per-packet set. Step-two re-broadcasts are
	// time-mixed with the next packet and cannot be attributed (the
	// mechanism's point), so they are not part of any per-packet set.
	waves := map[int]map[medium.NodeID]struct{}{}
	_, _, d := attackedSession(sc, packets, func(w *World, _, _ medium.NodeID) {
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
	})

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
	a, _ := sourceSend(seed, notifyAndGo)
	return a
}

// sourceSend runs the source attack's one send, with or without
// notify-and-go, under an eavesdropper parked on the source. It returns
// both readings of that observer: the transmitters it saw in the send
// window, and how far its triangulated source estimate lands from S (-1
// when it saw no transmission to triangulate).
func sourceSend(seed int64, notifyAndGo bool) (SourceAnonymityResult, float64) {
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
	// The send window: from the notification until the last back-off.
	window := sc.Alert.NotifyT + sc.Alert.NotifyT0 + 0.05
	a := SourceAnonymityResult{
		AnonymitySet: obs.DistinctSenders(1.0, 1.0+window),
		Neighbors:    len(w.Med.Neighbors(s)),
	}
	est, ok := obs.EstimateSource(1.0, 1.0+window)
	if !ok {
		return a, -1
	}
	return a, est.Dist(sPos)
}

// TimingAttackScore runs a CBR session under the given protocol and returns
// the timing-correlation score an attacker observing both endpoints'
// vicinities achieves (Section 3.2). Deterministic shortest-path protocols
// show a near-constant delay signature; ALERT's random routes blur it.
func TimingAttackScore(seed int64, proto ProtocolName, packets int) float64 {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Protocol = proto
	var corr adversary.TimingCorrelator
	attackedSession(sc, packets, func(w *World, s, d medium.NodeID) {
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
	})
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
	w, s, d := attackedSession(sc, packets, nil)

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
	sc.DrainTime = 20 // the post-compromise phase needs longer to settle

	// Phase one sends the first half of the packets on a clean network;
	// between the phases the adversary compromises the first delivered
	// route's relays; phase two sends the rest through them.
	half := packets / 2
	res := DoSResult{}
	w, _, _ := attackedSession(sc, packets, func(w *World, s, d medium.NodeID) {
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
	})

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

// attackedSession runs the session every attack watches: it builds sc's
// world with a send horizon of `packets` packets (DrainTime lets the last
// ones finish, matching Run's policy), lets mount set the adversary up on
// the first pair (S, D), sends S's packets to D one every Interval from
// 0.01 s, and drains the run.
func attackedSession(sc Scenario, packets int, mount func(w *World, s, d medium.NodeID)) (*World, medium.NodeID, medium.NodeID) {
	sc.Duration = float64(packets) * sc.Interval
	w := MustBuild(sc)
	pair := w.ChoosePairs()[0] // one fixed pair makes the session worth attacking
	s, d := pair.S, pair.D
	if mount != nil {
		mount(w, s, d)
	}
	for i := 0; i < packets; i++ {
		at := float64(i) * sc.Interval
		w.Eng.At(at+0.01, func() { w.Proto.Send(s, d, []byte("session")) })
	}
	w.Drain()
	return w, s, d
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
	w, _, _ := attackedSession(sc, packets, nil)
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

// ZoneOf exposes the destination zone geometry for a pair (examples use it
// to narrate what the protocol is doing): the zone ALERT computes from the
// node's registered position at the scenario's depth, which a baseline
// world, running no ALERT, gets too.
func ZoneOf(w *World, d medium.NodeID) geo.Rect {
	e := w.Loc.Lookup(d)
	return geo.DestZone(w.Net.Field(), e.Pos, w.Scenario.Alert.Depth(w.Net.N()), geo.Vertical)
}
