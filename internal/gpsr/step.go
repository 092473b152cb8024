// The pure GPSR forwarding decision, factored out of Router.Handle so the
// live daemon (internal/live) makes byte-for-byte the same next-hop choices
// over a UDP socket that the simulator makes over the event engine. The
// exact-path sim-vs-live smoke (live's five-node frozen topology) holds
// precisely because both sides call Step.

package gpsr

import (
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
)

// ForwardState is the per-packet routing state GPSR carries between hops:
// the greedy/perimeter mode, the distance at which perimeter recovery was
// entered, the previous holder (the right-hand rule's reference edge), and
// the first perimeter edge (face-tour loop detection). The simulator keeps
// it inside Packet; the live wire codec carries it in every data frame.
type ForwardState struct {
	Mode      Mode
	EntryDist float64
	Prev      medium.NodeID
	FirstFrom medium.NodeID
	FirstTo   medium.NodeID
}

// NewForwardState returns the state of a freshly launched packet.
func NewForwardState() ForwardState {
	return ForwardState{Mode: Greedy, Prev: NoDeliverTo,
		FirstFrom: NoDeliverTo, FirstTo: NoDeliverTo}
}

// StepVerdict is the outcome of one forwarding decision.
type StepVerdict uint8

const (
	// StepForward means the packet moves to the returned next hop.
	StepForward StepVerdict = iota
	// StepArrived means the holder is locally closest to the target and
	// closest-node termination applies — ALERT's random-forwarder rule.
	StepArrived
	// StepDeadEnd means perimeter recovery failed: the planar graph is
	// empty or the right-hand walk completed a face tour with no
	// progress. The packet is undeliverable from here.
	StepDeadEnd
)

// Step makes one GPSR forwarding decision at the node holding the packet:
// greedy toward dest, or a right-hand perimeter walk over the planarized
// neighbor graph when greedy hits a dead end (closestTerminates false).
//
//   - selfPos is the holder's position, nbrs its beaconed neighbor table.
//   - prevPos is the previous holder's position (the perimeter reference
//     edge); it is read only when st.Prev != NoDeliverTo.
//   - closestTerminates selects ALERT's rule: a greedy dead end terminates
//     routing at the locally-closest holder instead of entering recovery.
//   - scratch is the planarization work buffer, returned possibly grown so
//     callers can reuse it allocation-free across hops.
//
// st is updated in place (mode transitions, loop-detection edges); entered
// reports that this step switched the packet into perimeter mode.
func Step(cur medium.NodeID, selfPos, prevPos, dest geo.Point,
	closestTerminates bool, rangeM float64, planarization Planarization,
	nbrs, scratch []medium.Neighbor, st *ForwardState,
) (next medium.NodeID, verdict StepVerdict, entered bool, scratchOut []medium.Neighbor) {
	selfDist := selfPos.Dist(dest)
	if st.Mode == Perimeter && selfDist < st.EntryDist {
		// Closer than where we entered recovery: back to greedy.
		st.Mode = Greedy
	}

	if st.Mode == Greedy {
		// Prefer links comfortably inside the radio range: beacon
		// positions are up to a hello interval stale, so a neighbor at
		// the very fringe may have drifted out by delivery time (see
		// the commentary in Router.Handle).
		safe := rangeM * SafeRangeFactor
		best := NoDeliverTo
		bestDist := selfDist
		for _, nb := range nbrs {
			if !selfPos.Within(nb.Pos, safe) {
				continue
			}
			if d := nb.Pos.Dist(dest); d < bestDist {
				best, bestDist = nb.ID, d
			}
		}
		if best == NoDeliverTo {
			for _, nb := range nbrs {
				if d := nb.Pos.Dist(dest); d < bestDist {
					best, bestDist = nb.ID, d
				}
			}
		}
		if best != NoDeliverTo {
			return best, StepForward, false, scratch
		}
		// Dead end. In closest-node mode this IS the arrival: the
		// holder is locally closest to the target (the RF rule).
		if closestTerminates {
			return NoDeliverTo, StepArrived, false, scratch
		}
		st.Mode = Perimeter
		st.EntryDist = selfDist
		st.FirstFrom, st.FirstTo = NoDeliverTo, NoDeliverTo
		entered = true
	}

	// Perimeter forwarding over the planar subgraph.
	var planar []medium.Neighbor
	if planarization == RelativeNeighborhood {
		planar = planarizeRNG(scratch[:0], selfPos, nbrs)
	} else {
		planar = planarize(scratch[:0], selfPos, nbrs)
	}
	if len(planar) == 0 {
		return NoDeliverTo, StepDeadEnd, entered, planar
	}
	ref := dest
	if st.Prev != NoDeliverTo {
		ref = prevPos
	}
	nb := rightHand(selfPos, ref, planar)
	if st.FirstFrom == NoDeliverTo {
		st.FirstFrom, st.FirstTo = cur, nb.ID
	} else if cur == st.FirstFrom && nb.ID == st.FirstTo {
		// Completed a full face tour with no progress: unreachable.
		return NoDeliverTo, StepDeadEnd, entered, planar
	}
	return nb.ID, StepForward, entered, planar
}
