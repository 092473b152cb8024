// The daemon's packet handling: everything that runs once a data frame (or
// a locally launched packet) is in the loop goroutine's hands. The
// decisions are the simulator's own calls — every holder's leg step is
// gpsr.LegStep, every random forwarder's partition core.Step, a session
// is set up with core.NewSession and every data packet opened through a
// core.DestSession, and the crypto charges are core.SourceCharge and
// core.DestCharge, and a zone member's relay decision is
// core.RelayAddsReach. Besides framing, transport and measurement, this
// file keeps the zone delivery and relay-once bookkeeping, each around the
// daemon's own relayed set.

package live

import (
	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/medium"
)

// DestEntry is a location-service entry as the coordinator hands it to a
// source daemon: the world's location-service position, pseudonym, and the
// key-owner id standing in for K_pub^D.
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
	Size     int     // on-air data size
	Payload  []byte  // plaintext payload (sealed per packet for ALERT)
}

// Topology is one coordinator push: this node's beacon position, its
// neighbor table (who is in emulated radio range, where they beaconed),
// and the location-service entries of the flows this node sources.
type Topology struct {
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

// install makes t the daemon's view. Runs on the loop.
func (d *Daemon) install(t Topology) {
	d.self = t.Self
	d.table = d.table[:0]
	clear(d.addrs)
	for _, nb := range t.Nbrs {
		d.table = append(d.table, medium.Neighbor{ID: medium.NodeID(nb.ID), Pos: nb.Pos})
		d.addrs[nb.ID] = nb.Addr
	}
	for _, du := range t.Dests {
		if fl, ok := d.flows[du.Flow]; ok {
			fl.spec.Dest.Pos = du.Pos
		}
	}
}

// StartFlow begins sourcing a flow. Safe from any goroutine.
func (d *Daemon) StartFlow(spec FlowSpec) error {
	return d.call(func() {
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
	}, nil)
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
	}, nil)
	return r, err
}

// flowTick sends the flow's next packet and re-arms the pacing timer.
// Runs on the loop.
func (d *Daemon) flowTick(flow uint32) {
	fl, ok := d.flows[flow]
	if !ok || fl.sent >= fl.spec.Packets {
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
	if d.tap != nil {
		// Like every later line of the packet, on its virtual clock.
		d.tap.PacketSent(f.VTime, d.trace(f), d.cfg.ID, spec.Dest.ID)
	}
	// The origin holds the packet from the start (Router.Send's Path
	// seeding).
	f.Path = append(f.Path, int32(d.cfg.ID))
	if d.cfg.Protocol != "alert" {
		d.startLeg(f, spec.Dest.Pos, int32(spec.Dest.ID))
		d.stepLoop(f)
		return
	}
	// The source's crypto charge rides VTime; real time does not wait.
	f.VTime += core.SourceCharge(d.costs, seq == 0 && d.cfg.ChargeSessionSetup)
	st := core.NewPartition(geo.DestZone(d.cfg.Field, spec.Dest.Pos, d.cfg.Hmax, geo.Vertical),
		d.cfg.Field, d.cfg.Hmax, d.rnd)
	f.Flags |= FlagEnvelope
	f.Env = &Envelope{
		Kind: core.KindData,
		PS:   d.pseud, PD: spec.Dest.Pseudonym,
		LZD: st.LZD, Dir: st.Dir, Hmax: st.Hmax, Zone: st.Zone,
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

// startLeg aims a fresh GPSR leg at dest from this node (Router.Send on
// the frame): a full hop budget, a new forwarding state, one route send.
func (d *Daemon) startLeg(f *Frame, dest geo.Point, deliverTo int32) {
	f.Dest = dest
	f.DeliverTo = deliverTo
	f.HopBudget = gpsr.DefaultHopBudget
	f.SetForwardState(gpsr.NewForwardState())
	if d.tap != nil {
		d.tap.RouteSend(f.VTime, d.trace(f), d.cfg.ID)
	}
}

// routeEntry is core's route at this holder: core.Step on the frame's
// partition state. Inside Z_D (or at the end of the final leg) the packet
// zone-delivers here — report false, routing is over. Otherwise start the
// next leg toward the drawn TD and report true so the caller steps it.
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
	d.startLeg(f, st.TD, None)
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

// topologyView is the daemon as its legs' gpsr.Holder: the neighbor table
// and position of the last topology push, and the frame in hand's
// transmit-time stamp for the previous holder (fwd.Prev is always the
// node the frame arrived from).
type topologyView Daemon

func (v *topologyView) View(_, _ medium.NodeID) ([]medium.Neighbor, geo.Point, geo.Point) {
	return v.table, v.self, v.prevPos
}

// stepLoop makes this holder's leg steps: deliver, forward, or — when a
// leg ends here with an envelope aboard — run the ALERT partition and
// keep going. The loop bound covers the sim's recursive route() chain
// (several partition steps can resolve at one holder as zones shrink
// around it: each iteration either forwards, terminates, or spends
// partition divisions, of which there are at most Hmax plus a final leg).
func (d *Daemon) stepLoop(f *Frame) {
	for depth := 0; depth < 4*(d.cfg.Hmax+2); depth++ {
		st := f.ForwardState()
		budget := int(f.HopBudget)
		d.prevPos = f.SrcPos
		dec, scratch := gpsr.LegStep(medium.NodeID(d.cfg.ID), f.Dest, medium.NodeID(f.DeliverTo),
			&budget, &st, d.cfg.Medium.Range, (*topologyView)(d), d.scratch[:0])
		d.scratch = scratch
		f.HopBudget = uint16(budget)
		f.SetForwardState(st)
		if dec.Entered {
			d.counts.PerimeterEntries++
		}
		if next := int32(dec.Next); next != None {
			if addr, ok := d.addrs[next]; ok {
				d.counts.Forwarded++
				if d.tap != nil {
					d.tap.Forward(f.VTime, d.trace(f), d.cfg.ID, int(next), f.Mode.String())
				}
				d.transmit(next, addr, f)
				return
			}
			// Steered table changed under us; treat as a link loss.
			dec.Outcome = gpsr.DroppedLink
		}
		d.endLeg(f, dec.Outcome)
		switch {
		case dec.Outcome == gpsr.Delivered:
			d.deliverDirect(f)
			return
		case dec.Outcome != gpsr.ArrivedClosest || f.Env == nil:
			return
		}
		// ALERT's closest-node arrival: this node is the next random
		// forwarder, one that joins the path when the leg left its
		// origin (core.route's rf != at).
		if d.tap != nil {
			if origin, ok := legOrigin(f); ok && origin != int32(d.cfg.ID) {
				d.tap.RFSelected(f.VTime, d.trace(f), d.cfg.ID)
			}
		}
		if !d.routeEntry(f) {
			return
		}
	}
	// Pathological partition chain; drop rather than spin.
	d.endLeg(f, gpsr.DroppedDeadEnd)
}

// legOrigin is the node the frame's current leg started at: each hop of a
// leg spent one unit of its gpsr.DefaultHopBudget and appended its
// receiver to Path. ok is false for a frame whose counts disagree.
func legOrigin(f *Frame) (int32, bool) {
	i := len(f.Path) - 1 - (gpsr.DefaultHopBudget - int(f.HopBudget))
	if i < 0 || i >= len(f.Path) {
		return None, false
	}
	return f.Path[i], true
}

// endLeg counts and logs a leg ending at this node, as Router.finish does.
func (d *Daemon) endLeg(f *Frame, out gpsr.Outcome) {
	switch out {
	case gpsr.ArrivedClosest:
		d.counts.LegArrived++
	case gpsr.DroppedTTL:
		d.counts.LegDropTTL++
	case gpsr.DroppedDeadEnd:
		d.counts.LegDropDeadEnd++
	case gpsr.DroppedLink:
		d.counts.LegDropLink++
	}
	if d.tap != nil {
		d.tap.LegEnd(f.VTime, d.trace(f), d.cfg.ID, out.String())
	}
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

// broadcastZone puts one step-one zone delivery on the emulated air: one
// medium broadcast, rendered as FlagNoAck unicast copies to every
// neighbor that share a single drawn transmission delay — the simulator's
// Broadcast (no ARQ, one arrival time, per-receiver range and loss checks
// at the far end).
func (d *Daemon) broadcastZone(f *Frame) {
	f.ZoneStep = 1
	f.DeliverTo = None
	if d.tap != nil {
		d.tap.BroadcastTx(f.VTime, d.cfg.ID, d.trace(f), int(f.Size))
	}
	vtime := f.VTime + d.cfg.Medium.TxDelay(int(f.Size), d.rnd)
	for _, nb := range d.table {
		c := *f
		c.VTime = vtime
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
		d.send(d.addrs[int32(nb.ID)], b)
	}
}

// handleZone runs at every node hearing a zone delivery: a zone member
// that newly heard it decides once whether to relay, by
// core.RelayAddsReach over its pushed table and the sender's stamped
// position, then every hearer checks whether it is the addressee. The
// sender surely covered every member within Range of its stamped
// position, because the daemons' range check reads that same snapshot.
func (d *Daemon) handleZone(f *Frame) {
	if f.Env == nil {
		return
	}
	if f.Env.LZD.Contains(d.self) && !d.relayed.contains(pairKey(f.Flow, f.Seq)) {
		d.relayed.add(pairKey(f.Flow, f.Seq))
		members := func() []medium.Neighbor { return d.table }
		if core.RelayAddsReach(d.self, f.SrcPos, medium.NodeID(f.From), members, f.Env.LZD, d.cfg.Medium, d.cfg.Medium.Range) {
			d.counts.ZoneRelays++
			if d.tap != nil {
				d.tap.ZoneBroadcast(f.VTime, d.trace(f), d.cfg.ID, 1)
			}
			d.broadcastZone(f)
		}
	}
	d.recognize(f)
}

// recognize checks the envelope's addressee pseudonym against ours and
// delivers on match — core.recognize plus deliverData for the live data
// path: take each packet once, open it through the flow's
// core.DestSession, charge the destination's crypto to VTime.
func (d *Daemon) recognize(f *Frame) {
	env := f.Env
	if env == nil || env.Kind != core.KindData || env.PD != d.pseud {
		return
	}
	if d.deliverd.contains(pairKey(f.Flow, f.Seq)) {
		return
	}
	ds := d.dsess[f.Flow]
	setup := !ds.Opened()
	if _, err := ds.OpenData(d.suite, d.priv, env.EncSymKey, env.EncLZS, env.EncBitmap, env.Payload); err != nil {
		return // not actually for us
	}
	d.dsess[f.Flow] = ds
	d.deliverd.add(pairKey(f.Flow, f.Seq))
	charge := core.DestCharge(d.costs, setup && d.cfg.ChargeSessionSetup, len(env.EncBitmap) > 0)
	d.recordDelivery(f, f.VTime+charge)
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
