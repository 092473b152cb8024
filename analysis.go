// Public access to the paper's Section 3 attack experiments and to
// Equation (15), the destination zone's remaining nodes, so downstream
// users can run the anonymity evaluations without touching internal
// packages.

package alert

import (
	"alertmanet/internal/analysis"
	"alertmanet/internal/experiment"
)

// RemainingNodes evaluates Equation (15): the expected number of the
// destination zone's original nodes still inside after t seconds, for n
// nodes on a square field partitioned h times with node speed v (Fig. 9).
func RemainingNodes(t float64, n, h int, fieldSide, speed float64) float64 {
	return analysis.RemainingNodes(t, n, h, fieldSide, speed)
}

// IntersectionAttackResult reports a Section 3.3 attack session.
type IntersectionAttackResult struct {
	// Waves is how many per-packet recipient sets the attacker observed.
	Waves int
	// Candidates is how many nodes survived the recipient-set
	// intersection.
	Candidates int
	// DestinationCandidate reports whether the true destination is still
	// among them — the attack's necessary condition.
	DestinationCandidate bool
	// Exposed reports whether the intersection pinned the destination
	// down exactly.
	Exposed bool
}

// RunIntersectionAttack mounts the intersection attack on a long ALERT
// session, with or without the two-step multicast countermeasure.
func RunIntersectionAttack(seed int64, packets int, countermeasure bool) IntersectionAttackResult {
	r := experiment.IntersectionAttack(seed, packets, countermeasure)
	return IntersectionAttackResult{
		Waves:                r.Waves,
		Candidates:           r.Candidates,
		DestinationCandidate: r.DstCandidate,
		Exposed:              r.Exposed,
	}
}

// SourceAnonymitySet measures the notify-and-go mechanism (Section 2.6):
// how many candidate transmitters an eavesdropper parked on the source saw
// during a send, and the source's neighbor count eta.
func SourceAnonymitySet(seed int64, notifyAndGo bool) (anonymitySet, neighbors int) {
	r := experiment.SourceAnonymity(seed, notifyAndGo)
	return r.AnonymitySet, r.Neighbors
}

// TimingAttackScore runs a CBR session and returns how well a two-point
// eavesdropper can correlate departure and arrival times (Section 3.2):
// near 1 for fixed-path protocols, lower for ALERT.
func TimingAttackScore(seed int64, protocol Protocol, packets int) float64 {
	return experiment.TimingAttackScore(seed, experiment.ProtocolName(protocol), packets)
}

// DoSAttackResult reports a Section 3.1 denial-of-service experiment.
type DoSAttackResult struct {
	// BaselineDelivery is the delivery rate before the compromise.
	BaselineDelivery float64
	// UnderAttackDelivery is the delivery rate after the adversary turns
	// relays of the first observed route into packet sinks.
	UnderAttackDelivery float64
	// Compromised is how many nodes were subverted.
	Compromised int
}

// RunDoSAttack measures how a session survives when the adversary
// compromises `compromise` relays of its first observed route: GPSR keeps
// feeding the dead nodes, ALERT routes around them (Section 3.1).
func RunDoSAttack(seed int64, protocol Protocol, packets, compromise int) DoSAttackResult {
	r := experiment.DoSAttack(seed, experiment.ProtocolName(protocol), packets, compromise)
	return DoSAttackResult{
		BaselineDelivery:    r.BaselineDelivery,
		UnderAttackDelivery: r.UnderAttackDelivery,
		Compromised:         r.Compromised,
	}
}

// InterceptionProbability measures Section 3.1's interception resilience:
// the fraction of a session's packets that a fixed set of compromised
// nodes (placed on the first observed route) captures.
func InterceptionProbability(seed int64, protocol Protocol, packets, compromised int) float64 {
	return experiment.InterceptionExperiment(seed,
		experiment.ProtocolName(protocol), packets, compromised)
}
