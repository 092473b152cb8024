// Package gpsr implements Greedy Perimeter Stateless Routing [15, 30], the
// geographic routing substrate every protocol in this repository rides on:
// the GPSR baseline itself, ALERT's legs between random forwarders
// (Section 2.3), and the AO2P and ALARM comparators.
//
// A packet targets a position. Each holder greedily forwards to the
// neighbor whose beaconed position is closest to the target; when no
// neighbor improves on the holder (a dead end, Section 2.7), the packet
// either terminates — ALERT's "node closest to the TD becomes the random
// forwarder" rule — or enters perimeter mode: a right-hand-rule walk over
// the Gabriel-graph planarization of the neighbor graph until greedy
// progress resumes, as in the original GPSR recovery.
package gpsr

import (
	"math"

	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/node"
	"alertmanet/internal/telemetry"
)

// Mode is a packet's forwarding state.
type Mode uint8

const (
	// Greedy forwards to the neighbor closest to the destination.
	Greedy Mode = iota
	// Perimeter walks planar faces by the right-hand rule to escape a
	// dead end.
	Perimeter
)

// String names the mode as telemetry's forward events do.
func (m Mode) String() string {
	if m == Perimeter {
		return "perimeter"
	}
	return "greedy"
}

// Outcome describes how a routing attempt ended.
type Outcome uint8

const (
	// Delivered means the packet reached its DeliverTo node.
	Delivered Outcome = iota
	// ArrivedClosest means the packet reached the node closest to the
	// target position (DeliverTo unset) — an ALERT random forwarder.
	ArrivedClosest
	// DroppedTTL means the hop budget ran out.
	DroppedTTL
	// DroppedDeadEnd means perimeter recovery failed (disconnected or
	// the walk returned to its first edge).
	DroppedDeadEnd
	// DroppedLink means a hop's transmission failed on air even after the
	// medium's ARQ spent its retry budget (receiver out of range, loss,
	// or a compromised holder sinking the frame). The packet's last
	// confirmed holder reports the outcome.
	DroppedLink
)

func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case ArrivedClosest:
		return "arrived-closest"
	case DroppedTTL:
		return "dropped-ttl"
	case DroppedDeadEnd:
		return "dropped-dead-end"
	case DroppedLink:
		return "dropped-link"
	}
	return "unknown"
}

// NoDeliverTo marks a packet that terminates at the node closest to the
// target position rather than at a specific node.
const NoDeliverTo = medium.NodeID(-1)

// Packet is a geographic routing unit. Protocols embed their own payload.
type Packet struct {
	// Dest is the position the packet routes toward (a node's looked-up
	// location, or an ALERT temporary destination).
	Dest geo.Point
	// DeliverTo, when set, is the node the packet must reach; routing
	// fails rather than terminating at a closest node.
	DeliverTo medium.NodeID
	// Payload is the protocol's content; Size its bytes on air.
	Payload any
	Size    int
	// HopBudget is the remaining TTL in hops.
	HopBudget int
	// Hops counts transmissions so far (across perimeter recoveries).
	Hops int
	// Path records every node that held the packet, starting with the
	// origin. Used by the participating-node metrics (Fig. 10).
	Path []medium.NodeID
	// OnOutcome is invoked exactly once when routing ends, at the node
	// where it ended (for drops: the last holder).
	OnOutcome func(at medium.NodeID, pkt *Packet, out Outcome)

	// router is the router currently forwarding the packet; forward sets
	// it so SendResolved can report a lost hop without a per-hop closure.
	router *Router
	// inFlight counts unresolved link-layer sends carrying this frame. A
	// frame can ride two ARQs at once — hop k's ACK handshake may still be
	// retrying while the receiver already forwarded hop k+1 — so Release
	// defers recycling until the count drains.
	inFlight int
	// released marks a frame whose owner called Release while sends were
	// still in flight; the last SendResolved recycles it.
	released bool
	// fwd is the greedy/perimeter decision state (see ForwardState); all
	// routing state lives in the packet, per the GPSR design.
	fwd ForwardState
	// trace is the end-to-end packet id (metrics.Record.Seq) telemetry
	// attributes this packet's events to; hasTrace distinguishes an unset
	// trace from a legitimate id 0.
	trace    int
	hasTrace bool
}

// SetTrace attributes the packet (and every frame carrying it) to an
// end-to-end packet id in telemetry streams.
func (p *Packet) SetTrace(seq int) {
	p.trace = seq
	p.hasTrace = true
}

// TelemetryTrace implements telemetry.Traceable.
func (p *Packet) TelemetryTrace() int {
	if !p.hasTrace {
		return telemetry.NoTrace
	}
	return p.trace
}

// Counters aggregates router activity. Every Sent routing attempt ends in
// exactly one of the five terminal counters:
// Sent == Delivered + ArrivedClosest + DroppedTTL + DroppedDeadEnd + DroppedLink
// (the conservation invariant the experiment harness regresses).
type Counters struct {
	Sent             uint64
	Delivered        uint64
	ArrivedClosest   uint64
	DroppedTTL       uint64
	DroppedDeadEnd   uint64
	DroppedLink      uint64
	TotalHops        uint64
	PerimeterEntries uint64
}

// Planarization selects the planar subgraph used in perimeter mode.
type Planarization uint8

// GabrielGraph keeps edge (u,v) unless a witness sits inside the circle
// with diameter uv. It is the only planarization: Router and the live
// daemon route with it.
const GabrielGraph Planarization = 0

// Router routes packets over a network. It is stateless per the GPSR
// design: all routing state lives in the packet.
type Router struct {
	net    *node.Network
	counts Counters
	// tap, when non-nil, observes sends, forwards, hops and leg endings.
	tap *telemetry.Tap
	// nbrScratch and planarScratch are Handle's per-step work buffers,
	// reused across hops. Safe because the engine is single-threaded and
	// every forward/finish call sits in tail position: once control leaves
	// Handle (possibly re-entering it for a chained leg), the previous
	// frame never touches its scratch again.
	nbrScratch    []medium.Neighbor
	planarScratch []medium.Neighbor
	// freePkts recycles packet frames released by protocol layers.
	freePkts []*Packet
	// handleFree recycles deferred-Handle events (HandleAfter).
	handleFree []*handleEvent
}

// handleEvent is a pooled deferred Handle call; see HandleAfter.
type handleEvent struct {
	r   *Router
	at  medium.NodeID
	pkt *Packet
}

// RunEvent implements sim.Runner. The event recycles itself before
// dispatching, so a Handle that schedules further deferred hops can reuse
// it immediately.
func (h *handleEvent) RunEvent() {
	r, at, pkt := h.r, h.at, h.pkt
	h.pkt = nil
	r.handleFree = append(r.handleFree, h)
	r.Handle(at, pkt)
}

// New creates a router for the network.
func New(net *node.Network) *Router { return &Router{net: net} }

// NewPacket takes a packet frame from the router's pool (or allocates one).
// The frame comes back zeroed except for Path, which keeps its capacity at
// length 0, so a warmed-up pool issues frames without allocating.
func (r *Router) NewPacket() *Packet {
	if n := len(r.freePkts); n > 0 {
		p := r.freePkts[n-1]
		r.freePkts[n-1] = nil
		r.freePkts = r.freePkts[:n-1]
		return p
	}
	return &Packet{}
}

// Release returns a finished frame to the pool. Ownership rule: exactly one
// layer — the protocol that observed the frame's terminal OnOutcome — may
// release it, and must first copy out anything it keeps. In particular
// pkt.Path must be copied (append into a record-owned slice), never
// aliased: the pool truncates the backing array for the next packet, which
// would silently rewrite an aliased metrics.PacketRecord.Path. If the frame
// is still riding an unresolved link-layer send (its last hop's ACK
// handshake, say), recycling is deferred until that send resolves, so the
// medium's telemetry keeps a valid trace for the remaining ACK traffic.
func (r *Router) Release(p *Packet) {
	if p.inFlight > 0 {
		p.released = true
		return
	}
	r.recycle(p)
}

func (r *Router) recycle(p *Packet) {
	path := p.Path[:0]
	*p = Packet{Path: path}
	r.freePkts = append(r.freePkts, p)
}

// SetTap attaches a telemetry tap observing routing decisions. A nil tap
// (the default) disables routing telemetry.
func (r *Router) SetTap(t *telemetry.Tap) { r.tap = t }

// Tap returns the attached telemetry tap (nil when disabled); protocol
// layers whose demux short-circuits the router use it to emit their own
// forwarding events on the same stream.
func (r *Router) Tap() *telemetry.Tap { return r.tap }

// Counters returns a snapshot of routing statistics.
func (r *Router) Counters() Counters { return r.counts }

// DefaultHopBudget is the paper's GPSR TTL of 10. Every protocol's packets
// use it: ALERT per leg between random forwarders, the others end to end.
const DefaultHopBudget = 10

// CompleteTimeout is how long, in seconds, the GPSR, ALARM, AO2P and ZAP
// senders wait before recording an unfinished packet as undelivered.
const CompleteTimeout = 8.0

// SafeRangeFactor is the fraction of the radio range greedy forwarding
// prefers to stay within: routing reads beacon positions, reception exact
// ones, so a neighbor that beaconed at the fringe may be out of range.
const SafeRangeFactor = 0.9

// Send begins routing pkt from the given node. The packet is processed at
// the origin immediately (the origin itself may be the closest node).
func (r *Router) Send(from medium.NodeID, pkt *Packet) {
	r.counts.Sent++
	if pkt.HopBudget <= 0 {
		pkt.HopBudget = DefaultHopBudget
	}
	pkt.fwd = NewForwardState()
	pkt.Path = append(pkt.Path, from)
	if r.tap != nil {
		r.tap.RouteSend(r.net.Eng.Now(), pkt.TelemetryTrace(), int(from))
	}
	r.Handle(from, pkt)
}

// Receive records pkt's confirmed arrival at node cur: the hop count and
// the participating-node Path grow only here, on reception, never
// optimistically at send time — a transmission the ARQ ultimately loses
// must not count the node that never held the packet (Fig. 10 participants,
// route-Jaccard). Idempotent at the current holder, so the origin (already
// on the Path from Send) and protocol layers that call it before Handle are
// safe.
func (r *Router) Receive(cur medium.NodeID, pkt *Packet) {
	if n := len(pkt.Path); n > 0 && pkt.Path[n-1] == cur {
		return
	}
	pkt.Path = append(pkt.Path, cur)
	pkt.Hops++
	r.counts.TotalHops++
	if r.tap != nil {
		r.tap.Hop(r.net.Eng.Now(), pkt.TelemetryTrace(), int(cur), pkt.Hops)
	}
}

// Finish terminates pkt's routing at node cur with the given outcome,
// updating the terminal counters and firing OnOutcome. Protocols whose
// demux short-circuits the router (e.g. AO2P's destination contention)
// use it so every Sent packet still reaches exactly one terminal outcome.
func (r *Router) Finish(cur medium.NodeID, pkt *Packet, out Outcome) {
	r.finish(cur, pkt, out)
}

// HandleAfter schedules Handle(at, pkt) after delay, as a single engine
// event but without the closure a bare Schedule would cost. Protocols that
// charge per-hop crypto time before processing (AO2P's destination-position
// decryption, ALARM's signature verification) batch the whole charge into
// this one pooled event.
func (r *Router) HandleAfter(delay float64, at medium.NodeID, pkt *Packet) {
	var h *handleEvent
	if n := len(r.handleFree); n > 0 {
		h = r.handleFree[n-1]
		r.handleFree[n-1] = nil
		r.handleFree = r.handleFree[:n-1]
	} else {
		h = new(handleEvent)
	}
	h.r, h.at, h.pkt = r, at, pkt
	r.net.Eng.ScheduleRunner(delay, h)
}

// Handle processes pkt at node cur: LegStep delivers, forwards or ends the
// leg. Protocol demux layers call this when a medium delivery carries a
// *Packet. The receiving side of a forward routes the payload back into
// Handle, which records the arrival via Receive; if the medium's ARQ
// exhausts its retries the packet terminates here as DroppedLink. The hop
// budget is spent at send time, but Path and Hops grow only on confirmed
// reception.
func (r *Router) Handle(cur medium.NodeID, pkt *Packet) {
	r.Receive(cur, pkt)
	dec, scratch := LegStep(cur, pkt.Dest, pkt.DeliverTo, &pkt.HopBudget, &pkt.fwd,
		r.net.Med.Params().Range, (*mediumView)(r), r.planarScratch[:0])
	r.planarScratch = scratch
	if dec.Entered {
		r.counts.PerimeterEntries++
	}
	if dec.Next == NoDeliverTo {
		r.finish(cur, pkt, dec.Outcome)
		return
	}
	if r.tap != nil {
		r.tap.Forward(r.net.Eng.Now(), pkt.TelemetryTrace(), int(cur), int(dec.Next), pkt.fwd.Mode.String())
	}
	r.UnicastPacket(cur, dec.Next, pkt)
}

// mediumView is the router's Holder: the medium's hello snapshot gives the
// neighbor table, the holder's own position and the previous holder's.
type mediumView Router

func (v *mediumView) View(cur, prev medium.NodeID) ([]medium.Neighbor, geo.Point, geo.Point) {
	r := (*Router)(v)
	r.nbrScratch = r.net.Med.NeighborsInto(cur, r.nbrScratch)
	self := r.net.Med.BeaconPosition(cur)
	var prevPos geo.Point
	if prev != NoDeliverTo {
		prevPos = r.net.Med.BeaconPosition(prev)
	}
	return r.nbrScratch, self, prevPos
}

// UnicastPacket puts pkt on air from cur to next with the router's
// closure-free fate reporting: a lost send terminates routing at cur as
// DroppedLink. forward uses it for every hop; protocol layers whose demux
// short-circuits the greedy step (AO2P's destination claim) use it directly
// so even those hops allocate nothing.
func (r *Router) UnicastPacket(cur, next medium.NodeID, pkt *Packet) {
	pkt.router = r
	pkt.fwd.Prev = cur
	pkt.inFlight++
	r.net.Med.UnicastSink(cur, next, pkt, pkt.Size, pkt)
}

// SendResolved implements medium.OutcomeSink: the one-hop transmission the
// packet is riding resolved. A failed send terminates routing at the last
// confirmed holder — fwd.Prev, which UnicastPacket set to the sending node.
func (p *Packet) SendResolved(out medium.SendOutcome) {
	p.inFlight--
	if out != medium.SendDelivered {
		p.router.finish(p.fwd.Prev, p, DroppedLink)
		return
	}
	if p.released && p.inFlight == 0 {
		p.router.recycle(p)
	}
}

func (r *Router) finish(at medium.NodeID, pkt *Packet, out Outcome) {
	switch out {
	case Delivered:
		r.counts.Delivered++
	case ArrivedClosest:
		r.counts.ArrivedClosest++
	case DroppedTTL:
		r.counts.DroppedTTL++
	case DroppedDeadEnd:
		r.counts.DroppedDeadEnd++
	case DroppedLink:
		r.counts.DroppedLink++
	}
	if r.tap != nil {
		r.tap.LegEnd(r.net.Eng.Now(), pkt.TelemetryTrace(), int(at), out.String())
	}
	if pkt.OnOutcome != nil {
		pkt.OnOutcome(at, pkt, out)
	}
}

// NextGreedy returns the relay that Handle forwards a fresh closest-node
// packet to from the given node toward dest — Step's greedy choice — or
// ok=false where the packet would arrive there instead. ALERT's source uses
// this to learn the first relay so it can encrypt the TTL field to that
// relay's public key (Section 2.6).
func (r *Router) NextGreedy(from medium.NodeID, dest geo.Point) (medium.NodeID, bool) {
	r.nbrScratch = r.net.Med.NeighborsInto(from, r.nbrScratch)
	st := NewForwardState()
	next, verdict, _, _ := Step(from, r.net.Med.BeaconPosition(from), geo.Point{}, dest, true,
		r.net.Med.Params().Range, GabrielGraph, r.nbrScratch, nil, &st)
	return next, verdict == StepForward
}

// AttachAll registers a medium handler on every node that feeds *Packet
// payloads back into Handle. Single-protocol simulations (the GPSR baseline
// itself, unit tests) use this; protocols with richer packet types attach
// their own demux and call Handle themselves.
func (r *Router) AttachAll() {
	for i := 0; i < r.net.N(); i++ {
		id := medium.NodeID(i)
		r.net.Med.Attach(id, func(_ medium.NodeID, payload any, _ int) {
			if pkt, ok := payload.(*Packet); ok {
				r.Handle(id, pkt)
			}
		})
	}
}

// planarize appends to dst the neighbors kept by the Gabriel graph test:
// neighbor u survives unless some witness w lies inside the circle whose
// diameter is the segment (self, u). Planarity makes the right-hand walk
// terminate on faces instead of crossing edges.
func planarize(dst []medium.Neighbor, self geo.Point, nbrs []medium.Neighbor) []medium.Neighbor {
	out := dst
	for _, u := range nbrs {
		mid := geo.Point{X: (self.X + u.Pos.X) / 2, Y: (self.Y + u.Pos.Y) / 2}
		radius2 := self.Dist2(u.Pos) / 4
		keep := true
		for _, w := range nbrs {
			if w.ID == u.ID {
				continue
			}
			if w.Pos.Dist2(mid) < radius2 {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, u)
		}
	}
	return out
}

// rightHand picks the planar neighbor reached by sweeping counterclockwise
// from the reference direction (self -> ref), i.e. the GPSR rule "the next
// edge is the one sequentially counterclockwise about self from the
// incoming edge".
func rightHand(self, ref geo.Point, planar []medium.Neighbor) medium.Neighbor {
	base := math.Atan2(ref.Y-self.Y, ref.X-self.X)
	best := planar[0]
	bestAngle := math.Inf(1)
	for _, nb := range planar {
		a := math.Atan2(nb.Pos.Y-self.Y, nb.Pos.X-self.X)
		delta := a - base
		for delta <= 1e-12 { // strictly positive CCW sweep
			delta += 2 * math.Pi
		}
		if delta < bestAngle {
			bestAngle = delta
			best = nb
		}
	}
	return best
}
