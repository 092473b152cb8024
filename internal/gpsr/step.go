// The GPSR forwarding decisions, factored out of Router.Handle so the live
// daemon (internal/live) makes byte-for-byte the same choices over a UDP
// socket that the simulator makes over the event engine: LegStep is a
// holder's whole decision on a leg, Step its next-hop choice. The
// exact-path sim-vs-live smoke (live's five-node frozen topology) holds
// precisely because both sides call LegStep.

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
//   - planarization is GabrielGraph, the only planarization there is.
//   - scratch is the planarization work buffer, returned possibly grown so
//     callers can reuse it allocation-free across hops.
//
// st is updated in place (mode transitions, loop-detection edges); entered
// reports that this step switched the packet into perimeter mode.
func Step(cur medium.NodeID, selfPos, prevPos, dest geo.Point,
	closestTerminates bool, rangeM float64, planarization Planarization,
	nbrs, scratch []medium.Neighbor, st *ForwardState,
) (next medium.NodeID, verdict StepVerdict, entered bool, scratchOut []medium.Neighbor) {
	if st.Mode == Perimeter && selfPos.Dist(dest) < st.EntryDist {
		// Closer than where we entered recovery: back to greedy.
		st.Mode = Greedy
	}

	if st.Mode == Greedy {
		// Prefer links comfortably inside the radio range: beacon
		// positions are up to a hello interval stale, so a neighbor at
		// the very fringe may have drifted out by delivery time
		// (SafeRangeFactor). The inlined pre-tests decide most
		// neighbors from squared distances: one surely no nearer than
		// the best so far is skipped, and the exact Within and Offer
		// calls run only where the pre-tests cannot decide.
		safe := geo.BandOf(rangeM * SafeRangeFactor)
		near := geo.NewNearest(dest, selfPos)
		best := NoDeliverTo
		for _, nb := range nbrs {
			if near.Farther(nb.Pos.Dist2(dest)) {
				continue
			}
			if in, sure := safe.Sure(selfPos.Dist2(nb.Pos)); (in || !sure && safe.Within(selfPos, nb.Pos)) && near.Offer(nb.Pos) {
				best = nb.ID
			}
		}
		if best == NoDeliverTo {
			for _, nb := range nbrs {
				if !near.Farther(nb.Pos.Dist2(dest)) && near.Offer(nb.Pos) {
					best = nb.ID
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
		st.EntryDist = near.Dist() // nothing beat the holder
		st.FirstFrom, st.FirstTo = NoDeliverTo, NoDeliverTo
		entered = true
	}

	// Perimeter forwarding over the planar subgraph.
	planar := planarize(scratch[:0], selfPos, nbrs)
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

// Holder is a leg step's view of the node holding a packet: cur's
// neighbor table and position and, when prev is not NoDeliverTo, the
// previous holder's position, all from one hello snapshot: the simulator's
// medium, or the daemon's topology push and the frame's sender stamp.
type Holder interface {
	View(cur, prev medium.NodeID) (nbrs []medium.Neighbor, self, prevPos geo.Point)
}

// Decision is how one holder's leg step ended: the packet moves on to
// Next, or, when Next is NoDeliverTo, the leg ends at the holder with
// Outcome. Entered reports a switch into perimeter mode.
type Decision struct {
	Next    medium.NodeID
	Outcome Outcome
	Entered bool
}

// LegStep is one holder's whole decision on a leg toward dest. The leg's
// addressee delivers without reading h. Otherwise Step decides from h's
// view, and a forward spends one hop of *budget (DroppedTTL when none is
// left) and makes cur the previous holder. scratch is Step's buffer.
func LegStep(cur medium.NodeID, dest geo.Point, deliverTo medium.NodeID, budget *int,
	st *ForwardState, rangeM float64, h Holder, scratch []medium.Neighbor,
) (Decision, []medium.Neighbor) {
	if deliverTo != NoDeliverTo && cur == deliverTo {
		return Decision{Next: NoDeliverTo, Outcome: Delivered}, scratch
	}
	nbrs, self, prevPos := h.View(cur, st.Prev)
	next, verdict, entered, scratch := Step(cur, self, prevPos, dest,
		deliverTo == NoDeliverTo, rangeM, GabrielGraph, nbrs, scratch, st)
	dec := Decision{Next: NoDeliverTo, Entered: entered}
	switch {
	case verdict == StepArrived:
		dec.Outcome = ArrivedClosest
	case verdict == StepDeadEnd:
		dec.Outcome = DroppedDeadEnd
	case *budget <= 0:
		dec.Outcome = DroppedTTL
	default:
		*budget--
		st.Prev = cur
		dec.Next = next
	}
	return dec, scratch
}
