// The daemon's protocol logic: everything that runs once a data frame (or
// a locally launched packet) is in the loop goroutine's hands. The routing
// decisions are the simulator's own — every leg hop calls gpsr.Step, every
// random forwarder calls core.Step on the envelope the frame carries, and
// sessions are set up by core.NewSession — so sim and live diverge only
// where the transport does (real sockets, wall-clock ARQ timeouts).

package live

import (
	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/medium"
)

// DestEntry is a location-service entry as the coordinator hands it to a
// source daemon: position (hello-interval stale, like the sim's service),
// pseudonym, and the key-owner id standing in for K_pub^D.
type DestEntry struct {
	ID        int
	Pos       geo.Point
	Pseudonym crypt.Pseudonym
}

// FlowSpec is one CBR flow a source daemon runs.
type FlowSpec struct {
	Flow     uint32
	Dest     DestEntry
	Packets  int
	Interval float64 // emulated seconds between sends
	Offset   float64 // emulated delay before the first send
	Size     int     // on-air data size; 0 means Config.PacketSize
	Payload  []byte  // plaintext payload (sealed per packet for ALERT)
}

// Topology is one coordinator push: the emulated fleet time, this node's
// position, who is in emulated radio range (and where), and refreshed
// location-service entries for the flows this node sources.
type Topology struct {
	T     float64
	Self  geo.Point
	Nbrs  []Neighbor
	Dests []DestUpdate
}

// DestUpdate refreshes a sourced flow's location-service entry.
type DestUpdate struct {
	Flow uint32
	Pos  geo.Point
}

// Report is one daemon's measurement scrape.
type Report struct {
	Counters   Counters
	Sends      []SendRecord
	Deliveries []Delivery
}

// ApplyTopology installs a coordinator push. Safe from any goroutine.
func (d *Daemon) ApplyTopology(t Topology) error {
	return d.call(func() {
		d.now = t.T
		d.self = t.Self
		d.nbrs = append(d.nbrs[:0], t.Nbrs...)
		for k := range d.nbrIdx {
			delete(d.nbrIdx, k)
		}
		for i, nb := range d.nbrs {
			d.nbrIdx[nb.ID] = i
		}
		for _, du := range t.Dests {
			if fl, ok := d.flows[du.Flow]; ok {
				fl.spec.Dest.Pos = du.Pos
			}
		}
	})
}

// StartFlow begins sourcing a flow. Safe from any goroutine.
func (d *Daemon) StartFlow(spec FlowSpec) error {
	return d.call(func() {
		if spec.Size <= 0 {
			spec.Size = d.cfg.PacketSize
		}
		if _, ok := d.flows[spec.Flow]; ok {
			return
		}
		fl := &flowState{spec: spec}
		if d.cfg.Protocol == "alert" {
			// Establish the session once, like core.Send's first
			// packet.
			destPub, _ := d.suite.GenerateKeyPair(spec.Dest.ID)
			zs := geo.DestZone(d.cfg.Field, d.self, d.cfg.Hmax, geo.Vertical)
			var err error
			if fl.key, fl.encKey, fl.encLZS, err = core.NewSession(d.suite, destPub, zs, d.rnd); err != nil {
				return
			}
		}
		d.flows[spec.Flow] = fl
		fl.timer = d.after(d.real(spec.Offset), func() { d.flowTick(spec.Flow) })
	})
}

// Collect scrapes the daemon's measurements. Safe from any goroutine.
func (d *Daemon) Collect() (Report, error) {
	var r Report
	err := d.call(func() {
		r.Counters = d.counts
		r.Sends = append([]SendRecord(nil), d.sends...)
		r.Deliveries = make([]Delivery, len(d.delivs))
		for i, dv := range d.delivs {
			dv.Path = append([]int(nil), dv.Path...)
			r.Deliveries[i] = dv
		}
	})
	return r, err
}

// flowTick sends the flow's next packet and re-arms the pacing timer.
// Runs on the loop.
func (d *Daemon) flowTick(flow uint32) {
	fl, ok := d.flows[flow]
	if !ok || fl.stopped || fl.sent >= fl.spec.Packets {
		return
	}
	seq := uint32(fl.sent)
	fl.sent++
	if fl.sent < fl.spec.Packets {
		fl.timer = d.after(d.real(fl.spec.Interval), func() { d.flowTick(flow) })
	}
	d.launch(fl, seq)
}

// launch builds and routes one packet from this node — core.Send plus the
// first route() call, collapsed onto the live frame.
func (d *Daemon) launch(fl *flowState, seq uint32) {
	spec := &fl.spec
	sendT := spec.Offset + float64(seq)*spec.Interval
	d.counts.Sent++
	d.sends = append(d.sends, SendRecord{Flow: spec.Flow, Seq: seq, Dst: spec.Dest.ID, T: sendT})
	f := &d.rxFrame
	*f = Frame{
		Kind: KindData, Flow: spec.Flow, Seq: seq,
		Size:      uint32(spec.Size),
		DeliverTo: None, Prev: None, FirstFrom: None, FirstTo: None,
		Path: f.Path[:0],
	}
	trace := d.trace(f)
	if d.tap != nil {
		d.tap.PacketSent(sendT, trace, d.cfg.ID, spec.Dest.ID)
		d.tap.RouteSend(sendT, trace, d.cfg.ID)
	}
	// The origin holds the packet from the start (Router.Send's Path
	// seeding).
	f.Path = append(f.Path, int32(d.cfg.ID))
	if d.cfg.Protocol != "alert" {
		f.Dest = spec.Dest.Pos
		f.DeliverTo = int32(spec.Dest.ID)
		f.HopBudget = uint16(d.cfg.HopBudget)
		d.stepLoop(f)
		return
	}
	// Source-side crypto charge: one symmetric seal per packet plus the
	// session's two public-key operations on its first packet
	// (core.Send's launch delay). VTime pays it; real time does not wait.
	f.VTime += d.costs.SymEncrypt
	if seq == 0 && d.cfg.ChargeSessionSetup {
		f.VTime += 2 * d.costs.PubEncrypt
	}
	dir := geo.Vertical
	if d.rnd.Bernoulli(0.5) {
		dir = geo.Horizontal
	}
	f.Flags |= FlagEnvelope
	f.Env = &Envelope{
		Kind: core.KindData,
		PS:   d.pseud, PD: spec.Dest.Pseudonym,
		LZD:       geo.DestZone(d.cfg.Field, spec.Dest.Pos, d.cfg.Hmax, geo.Vertical),
		Dir:       dir,
		Hdiv:      0,
		Hmax:      d.cfg.Hmax,
		Zone:      d.cfg.Field,
		DPubOwner: int32(spec.Dest.ID),
		Seq:       int(seq),
		EncLZS:    fl.encLZS,
		EncSymKey: fl.encKey,
		Payload:   crypt.SymSeal(fl.key, spec.Payload, d.rnd),
	}
	// core.route(src, env): zone-deliver if already home, else pick the
	// first leg and ride it.
	if !d.routeEntry(f) {
		return
	}
	d.stepLoop(f)
}

// routeEntry is core's route at this holder: core.Step on the frame's
// partition state. Inside Z_D (or at the end of the final leg) the packet
// zone-delivers here — report false, routing is over. Otherwise aim the
// next leg at the drawn TD and report true so the caller steps it.
func (d *Daemon) routeEntry(f *Frame) bool {
	env := f.Env
	st := core.Partition{LZD: env.LZD, TD: env.TD, Dir: env.Dir, Hdiv: env.Hdiv,
		Hmax: env.Hmax, Zone: env.Zone, FinalLeg: f.Flags&FlagFinalLeg != 0}
	if core.Step(&st, d.self, d.cfg.Field, !d.cfg.FixedAxisPartition, d.rnd) {
		d.zoneDeliver(f)
		return false
	}
	env.Zone, env.Hdiv, env.Dir = st.Zone, st.Hdiv, st.Dir
	if st.FinalLeg {
		f.Flags |= FlagFinalLeg
	}
	f.Dest = st.TD
	f.DeliverTo = None
	f.HopBudget = uint16(d.cfg.LegHopBudget)
	f.SetForwardState(gpsr.NewForwardState())
	return true
}

// handleFrame routes a received data frame (physics and ARQ already done).
func (d *Daemon) handleFrame(f *Frame) {
	if f.ZoneStep > 0 {
		d.handleZone(f)
		return
	}
	// Router.Receive: the hop count and Path grow on confirmed reception.
	if n := len(f.Path); n == 0 || f.Path[n-1] != int32(d.cfg.ID) {
		f.Path = append(f.Path, int32(d.cfg.ID))
		f.Hops++
		if d.tap != nil {
			d.tap.Hop(f.VTime, d.trace(f), d.cfg.ID, int(f.Hops))
		}
	}
	d.stepLoop(f)
}

// stepLoop processes a leg packet held by this node: deliver, forward, or
// — when a leg ends here with an envelope aboard — run the ALERT partition
// and keep going. The loop bound covers the sim's recursive route() chain
// (several partition steps can resolve at one holder as zones shrink
// around it: each iteration either forwards, terminates, or spends
// partition divisions, of which there are at most Hmax plus a final leg).
func (d *Daemon) stepLoop(f *Frame) {
	for depth := 0; depth < 4*(d.cfg.Hmax+2); depth++ {
		if f.DeliverTo != None && f.DeliverTo == int32(d.cfg.ID) {
			d.deliverDirect(f)
			return
		}
		st := f.ForwardState()
		d.nbrBuf = d.nbrBuf[:0]
		for _, nb := range d.nbrs {
			d.nbrBuf = append(d.nbrBuf, medium.Neighbor{ID: medium.NodeID(nb.ID), Pos: nb.Pos})
		}
		// The previous holder's reference position is its transmit-time
		// stamp: fwd.Prev is always the node the frame arrived from.
		prevPos := f.SrcPos
		next, verdict, entered, scratch := gpsr.Step(medium.NodeID(d.cfg.ID),
			d.self, prevPos, f.Dest, f.DeliverTo == None, d.cfg.Medium.Range,
			gpsr.GabrielGraph, d.nbrBuf, d.scratch[:0], &st)
		d.scratch = scratch
		if entered {
			d.counts.PerimeterEntries++
		}
		switch verdict {
		case gpsr.StepArrived:
			// ALERT's closest-node arrival: this node is the next
			// random forwarder.
			d.counts.LegArrived++
			if d.tap != nil {
				d.tap.LegEnd(f.VTime, d.trace(f), d.cfg.ID, "arrived-closest")
			}
			if f.Env == nil {
				return
			}
			if d.tap != nil && f.Hops > 0 {
				d.tap.RFSelected(f.VTime, d.trace(f), d.cfg.ID)
			}
			if !d.routeEntry(f) {
				return
			}
			continue
		case gpsr.StepDeadEnd:
			d.counts.LegDropDeadEnd++
			if d.tap != nil {
				d.tap.LegEnd(f.VTime, d.trace(f), d.cfg.ID, "dead-end")
			}
			return
		}
		// Forward one hop: the budget is spent at send time
		// (Router.forward), while Path and Hops grew on reception.
		if f.HopBudget == 0 {
			d.counts.LegDropTTL++
			if d.tap != nil {
				d.tap.LegEnd(f.VTime, d.trace(f), d.cfg.ID, "ttl")
			}
			return
		}
		f.HopBudget--
		st.Prev = medium.NodeID(d.cfg.ID)
		f.SetForwardState(st)
		nb, ok := d.neighbor(int32(next))
		if !ok {
			// Steered table changed under us; treat as a link loss.
			d.counts.LegDropLink++
			return
		}
		d.counts.Forwarded++
		if d.tap != nil {
			mode := "greedy"
			if st.Mode == gpsr.Perimeter {
				mode = "perimeter"
			}
			d.tap.Forward(f.VTime, d.trace(f), d.cfg.ID, int(next), mode)
		}
		d.transmit(nb, f, false)
		return
	}
	// Pathological partition chain; drop rather than spin.
	d.counts.LegDropDeadEnd++
}

// zoneDeliver runs at the last random forwarder: count the broadcast hop,
// recognize locally (the holder itself may be the addressee, and like
// core's its delivery counts the broadcast), then put one emulated
// broadcast on the air.
func (d *Daemon) zoneDeliver(f *Frame) {
	f.Hops++
	d.recognize(f)
	d.relayed.add(pairKey(f.Flow, f.Seq)) // the origin never re-relays
	d.counts.ZoneBroadcasts++
	if d.tap != nil {
		d.tap.ZoneBroadcast(f.VTime, d.trace(f), d.cfg.ID, 1)
	}
	d.broadcastZone(f)
}

// broadcastZone emits the per-neighbor copies of a step-one zone delivery:
// FlagNoAck unicast datagrams sharing a single drawn transmission delay —
// the live rendering of the simulator's Broadcast (no ARQ, one arrival
// time, per-receiver range and loss checks at the far end).
func (d *Daemon) broadcastZone(f *Frame) {
	f.ZoneStep = 1
	f.DeliverTo = None
	delay := d.txDelay(int(f.Size))
	for _, nb := range d.nbrs {
		c := *f
		c.VTime = f.VTime + delay
		d.sendSeq++
		c.SendID = uint64(d.cfg.ID)<<32 | d.sendSeq
		c.From = int32(d.cfg.ID)
		c.To = None
		c.Flags |= FlagNoAck
		c.SrcPos = d.self
		b, err := AppendFrame(d.encBuf[:0], &c)
		if err != nil {
			return
		}
		d.encBuf = b
		if d.tap != nil {
			d.tap.BroadcastTx(c.VTime, d.cfg.ID, d.trace(f), int(f.Size))
		}
		d.enqueue(nb.Addr, b)
	}
}

// handleZone runs at every node hearing a zone delivery: relay once if we
// are a zone member that newly heard it (so the packet reaches all k nodes
// of Z_D even when the broadcaster sits near the zone edge), then check
// whether we are the addressee.
func (d *Daemon) handleZone(f *Frame) {
	if f.Env == nil {
		return
	}
	if f.Env.LZD.Contains(d.self) && !d.relayed.contains(pairKey(f.Flow, f.Seq)) {
		d.relayed.add(pairKey(f.Flow, f.Seq))
		d.counts.ZoneRelays++
		if d.tap != nil {
			d.tap.ZoneBroadcast(f.VTime, d.trace(f), d.cfg.ID, 1)
		}
		d.broadcastZone(f)
	}
	d.recognize(f)
}

// recognize checks the envelope's addressee pseudonym against ours and
// delivers on match — core.recognize plus deliverData for the live data
// path: establish the destination session (really decrypt K_s with our
// private key), open the payload, charge the decryption costs to VTime.
func (d *Daemon) recognize(f *Frame) {
	env := f.Env
	if env == nil || env.Kind != core.KindData || env.PD != d.pseud {
		return
	}
	if d.deliverd.contains(pairKey(f.Flow, f.Seq)) {
		return
	}
	sess := d.dsess[f.Flow]
	if sess == nil {
		sess = &destState{}
		d.dsess[f.Flow] = sess
	}
	// Destination-side crypto charges (core.deliverData): one symmetric
	// open per packet, plus the session's two public-key decryptions on
	// its first packet when session setup is billed.
	vt := f.VTime + d.costs.SymDecrypt
	if !sess.established {
		keyRaw, err := d.suite.DecryptPub(d.priv, env.EncSymKey)
		if err != nil || len(keyRaw) != len(sess.key) {
			return // not actually for us
		}
		copy(sess.key[:], keyRaw)
		sess.established = true
		if d.cfg.ChargeSessionSetup {
			vt += 2 * d.costs.PubDecrypt
		}
	}
	if _, err := crypt.SymOpen(sess.key, env.Payload); err != nil {
		return
	}
	d.deliverd.add(pairKey(f.Flow, f.Seq))
	d.recordDelivery(f, vt)
}

// deliverDirect is the gpsr-family arrival: DeliverTo matched this node.
func (d *Daemon) deliverDirect(f *Frame) {
	if d.deliverd.contains(pairKey(f.Flow, f.Seq)) {
		return
	}
	d.deliverd.add(pairKey(f.Flow, f.Seq))
	d.recordDelivery(f, f.VTime)
}

func (d *Daemon) recordDelivery(f *Frame, vtime float64) {
	d.counts.Delivered++
	src := None
	if len(f.Path) > 0 {
		src = f.Path[0]
	}
	path := make([]int, 0, len(f.Path)+1)
	for _, id := range f.Path {
		path = append(path, int(id))
	}
	if n := len(path); n == 0 || path[n-1] != d.cfg.ID {
		path = append(path, d.cfg.ID)
	}
	d.delivs = append(d.delivs, Delivery{
		Flow: f.Flow, Seq: f.Seq, Src: int(src), Dst: d.cfg.ID,
		VTime: vtime, Hops: int(f.Hops), Path: path,
	})
	if d.tap != nil {
		d.tap.PacketDone(vtime, d.trace(f), true, int(f.Hops), vtime)
	}
}
