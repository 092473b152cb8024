// Package adversary implements the attacker models of Sections 2.1 and 3:
// passive eavesdroppers that record transmissions and receptions in their
// vicinity, an intersection-attack tracker that intersects destination-zone
// recipient sets across packets (Section 3.3), a timing-attack correlator
// that matches departure and arrival times (Section 3.2), a route tracker
// that measures how predictable a flow's relay sets are (Section 3.1), and
// a source-anonymity meter for the notify-and-go window (Section 2.6).
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

// Observer is a passive eavesdropper covering a circular area (or, with
// Everywhere, the whole field — the strongest passive adversary).
type Observer struct {
	Center     geo.Point
	Radius     float64
	Everywhere bool

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

// NewGlobalObserver creates an eavesdropper that sees the entire field.
func NewGlobalObserver(med *medium.Medium) *Observer {
	o := &Observer{Everywhere: true}
	med.TapSend(func(tx medium.Transmission) {
		o.Transmissions = append(o.Transmissions, tx)
	})
	med.TapRecv(func(rx medium.Reception) {
		o.Receptions = append(o.Receptions, rx)
	})
	return o
}

func (o *Observer) covers(p geo.Point) bool {
	return o.Everywhere || o.Center.Within(p, o.Radius)
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

// IntersectionTracker mounts the intersection attack of Section 3.3: it
// watches receptions inside a suspected destination zone, groups them into
// per-packet delivery waves (receptions separated by more than WaveGap
// start a new wave), and intersects the recipient sets. If the surviving
// candidate set shrinks to one node, the destination is exposed.
type IntersectionTracker struct {
	Zone    geo.Rect
	WaveGap float64

	waves    []map[medium.NodeID]struct{}
	lastSeen float64
	started  bool
}

// NewIntersectionTracker taps the channel and begins tracking.
func NewIntersectionTracker(med *medium.Medium, zone geo.Rect, waveGap float64) *IntersectionTracker {
	t := &IntersectionTracker{Zone: zone, WaveGap: waveGap}
	med.TapRecv(func(rx medium.Reception) { t.observe(rx) })
	return t
}

func (t *IntersectionTracker) observe(rx medium.Reception) {
	if !t.Zone.Contains(rx.ToPos) {
		return
	}
	if !t.started || rx.At-t.lastSeen > t.WaveGap {
		t.waves = append(t.waves, map[medium.NodeID]struct{}{})
		t.started = true
	}
	t.lastSeen = rx.At
	t.waves[len(t.waves)-1][rx.To] = struct{}{}
}

// Waves returns how many delivery waves the attacker distinguished.
func (t *IntersectionTracker) Waves() int { return len(t.waves) }

// Candidates returns the intersection of all observed recipient sets — the
// nodes the attacker still considers possible destinations. An empty
// tracker returns nil (no information).
func (t *IntersectionTracker) Candidates() []medium.NodeID {
	if len(t.waves) == 0 {
		return nil
	}
	var out []medium.NodeID
	for id := range t.waves[0] {
		inAll := true
		for _, w := range t.waves[1:] {
			if _, ok := w[id]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Exposed reports whether the attack pinned the destination down to exactly
// the given node.
func (t *IntersectionTracker) Exposed(dst medium.NodeID) bool {
	c := t.Candidates()
	return len(c) == 1 && c[0] == dst
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
// relay sets of successive packets of one flow; MeanJaccard near 1 means
// the flow always uses the same nodes (traceable, interceptable), near 0
// means every packet takes a fresh route.
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

// MeanJaccard returns the average Jaccard similarity between consecutive
// packets' relay sets.
func (r *RouteTracker) MeanJaccard() float64 {
	if len(r.routes) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(r.routes); i++ {
		total += jaccard(r.routes[i-1], r.routes[i])
	}
	return total / float64(len(r.routes)-1)
}

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

func jaccard(a, b map[medium.NodeID]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for id := range a {
		if _, ok := b[id]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
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
