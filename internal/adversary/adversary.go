// Package adversary implements the attacker models of Sections 2.1 and 3:
// passive eavesdroppers that record transmissions and receptions in their
// vicinity, a timing-attack correlator that matches departure and arrival
// times (Section 3.2), a route tracker that measures how predictable a
// flow's relay sets are (Section 3.1), and a source-anonymity meter for the
// notify-and-go window (Section 2.6). The intersection attack of Section
// 3.3 attributes zone receivers to packets through ALERT's recipient hook,
// so it lives in experiment.IntersectionAttack.
//
// Attackers observe only what radios leak — frames, times, positions of
// transmitters and receivers — never protocol-internal state.
package adversary

import (
	"math"
	"sort"

	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
)

// Observer is a passive eavesdropper covering a circular area.
type Observer struct {
	Center geo.Point
	Radius float64

	Transmissions []medium.Transmission
	Receptions    []medium.Reception
}

// NewObserver creates an eavesdropper and taps the channel.
func NewObserver(med *medium.Medium, center geo.Point, radius float64) *Observer {
	o := &Observer{Center: center, Radius: radius}
	med.TapSend(func(tx medium.Transmission) {
		if o.covers(tx.FromPos) {
			o.Transmissions = append(o.Transmissions, tx)
		}
	})
	med.TapRecv(func(rx medium.Reception) {
		if o.covers(rx.ToPos) {
			o.Receptions = append(o.Receptions, rx)
		}
	})
	return o
}

func (o *Observer) covers(p geo.Point) bool {
	return o.Center.Within(p, o.Radius)
}

// DistinctSenders returns how many different nodes the observer saw
// transmitting in the time window [from, to] — the eta-anonymity set of a
// notify-and-go burst.
func (o *Observer) DistinctSenders(from, to float64) int {
	seen := map[medium.NodeID]struct{}{}
	for _, tx := range o.Transmissions {
		if tx.At >= from && tx.At <= to {
			seen[tx.From] = struct{}{}
		}
	}
	return len(seen)
}

// TimingCorrelator mounts the timing attack of Section 3.2: given the
// departure times observed near a suspected source and the arrival times
// observed near a suspected destination, it looks for a constant
// send-to-receive delay. A high score means the pair's interaction shows a
// fixed time signature (the paper's 5-second example); randomized routes
// and cover traffic destroy the signature.
type TimingCorrelator struct {
	sends []float64
	recvs []float64
}

// AddSend records a departure observed near the suspected source.
func (c *TimingCorrelator) AddSend(t float64) { c.sends = append(c.sends, t) }

// AddRecv records an arrival observed near the suspected destination.
func (c *TimingCorrelator) AddRecv(t float64) { c.recvs = append(c.recvs, t) }

// Score returns the fraction of sends supported by the most popular
// send-to-arrival delay bin of width tolerance — 1.0 means every departure
// had an arrival at one fixed delay (perfectly correlatable); values near 0
// mean no timing signature. All pairs within a horizon of 1000*tolerance
// are histogrammed, so a constant true delay accumulates one hit per
// packet while uncorrelated traffic spreads thinly over many bins.
func (c *TimingCorrelator) Score(tolerance float64) float64 {
	if len(c.sends) == 0 || len(c.recvs) == 0 || tolerance <= 0 {
		return 0
	}
	recvs := append([]float64(nil), c.recvs...)
	sort.Float64s(recvs)
	horizon := 1000 * tolerance
	bins := map[int64]int{}
	best := 0
	for _, s := range c.sends {
		// Each departure supports a delay bin at most once, no matter
		// how many arrivals (duplicates, re-broadcasts) land in it —
		// the attacker asks "did THIS packet show delay d", not "how
		// many frames did".
		seen := map[int64]struct{}{}
		i := sort.SearchFloat64s(recvs, s)
		for ; i < len(recvs) && recvs[i]-s <= horizon; i++ {
			d := recvs[i] - s
			b := int64(math.Floor(d / tolerance))
			// Credit the bin and its neighbors to avoid edge effects.
			for _, bb := range []int64{b - 1, b, b + 1} {
				if _, dup := seen[bb]; dup {
					continue
				}
				seen[bb] = struct{}{}
				bins[bb]++
				if bins[bb] > best {
					best = bins[bb]
				}
			}
		}
	}
	score := float64(best) / float64(len(c.sends))
	if score > 1 {
		score = 1
	}
	return score
}

// RouteTracker measures route predictability (Section 3.1): feed it the
// relay sets of successive packets of one flow, then ask how often a fixed
// set of compromised nodes would capture a packet, or how spread the
// routes are over the relays. (The mean Jaccard similarity of successive
// routes is experiment's Result.RouteJaccard.)
type RouteTracker struct {
	routes []map[medium.NodeID]struct{}
}

// AddRoute records one packet's relay set.
func (r *RouteTracker) AddRoute(path []medium.NodeID) {
	set := make(map[medium.NodeID]struct{}, len(path))
	for _, id := range path {
		set[id] = struct{}{}
	}
	r.routes = append(r.routes, set)
}

// Routes returns how many packets have been recorded.
func (r *RouteTracker) Routes() int { return len(r.routes) }

// InterceptionProbability returns how often a fixed set of compromised
// nodes would capture a packet: the fraction of recorded routes containing
// at least one compromised node. Against GPSR one well-placed node captures
// everything; against ALERT the dynamic routes dodge it (Section 3.1).
func (r *RouteTracker) InterceptionProbability(compromised []medium.NodeID) float64 {
	if len(r.routes) == 0 {
		return 0
	}
	hit := 0
	for _, route := range r.routes {
		for _, c := range compromised {
			if _, ok := route[c]; ok {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(r.routes))
}

// RouteEntropy returns the Shannon entropy (bits) of the relay-usage
// distribution across the recorded routes: how unpredictable the protocol's
// relay choice is to an observer planning an interception. A protocol that
// reuses the same few relays concentrates probability mass (low entropy);
// ALERT's per-packet random forwarders flatten it (high entropy).
func (r *RouteTracker) RouteEntropy() float64 {
	counts := map[medium.NodeID]int{}
	total := 0
	for _, route := range r.routes {
		for id := range route {
			counts[id]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// EstimateSource triangulates where a flow started: the origin of the
// FIRST transmission the observer sees in the send window. Without cover
// traffic the first transmitter near the source IS the source, so the
// estimate lands on it ("the location of a message's sender may be revealed
// by merely exposing the transmission direction", Section 2.1); with
// notify-and-go any of the eta covering neighbors is equally likely to fire
// first, so the estimate lands on a random neighborhood position.
func (o *Observer) EstimateSource(from, to float64) (geo.Point, bool) {
	best := -1
	for i, tx := range o.Transmissions {
		if tx.At < from || tx.At > to {
			continue
		}
		if best < 0 || tx.At < o.Transmissions[best].At {
			best = i
		}
	}
	if best < 0 {
		return geo.Point{}, false
	}
	return o.Transmissions[best].FromPos, true
}
