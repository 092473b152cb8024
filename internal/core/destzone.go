// Destination-zone delivery (Sections 2.3 and 3.3): the last random
// forwarder either broadcasts to the k nodes of Z_D (plain k-anonymity), or
// — with the intersection guard on — multicasts a bit-flipped copy to m of
// the k nodes, which hold it and re-broadcast when the session's next
// packet arrives, so the attacker's recipient-set intersection never pins
// down D.

package core

import (
	"slices"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
)

// heldItem is a step-one packet parked at a holder node.
type heldItem struct {
	holder   medium.NodeID
	zdl      *ZoneDelivery
	released bool
}

// zoneDeliver runs at the last random forwarder once it (or the partition
// logic) determines the packet has reached Z_D.
func (p *Protocol) zoneDeliver(at medium.NodeID, env *Envelope) {
	f := env.flight
	if f != nil {
		f.rec.Path = append(f.rec.Path, at)
	}
	// The holder itself may be the addressee (the destination can end up
	// as the last random forwarder, or the source can relay its own
	// confirmation). It processes the packet like any receiver would —
	// and still performs the zone broadcast below, so observers see the
	// same k-anonymity traffic pattern either way.
	p.recognize(at, env)
	// Intersection guard: pick m holder nodes from the neighbors inside
	// Z_D (the last RF knows zone membership from hello beacons).
	var candidates []medium.NodeID
	if env.Kind == KindData && p.cfg.IntersectionGuard {
		p.nbrs = p.net.Med.NeighborsInto(at, p.nbrs)
		for _, nb := range p.nbrs {
			if env.LZD.Contains(nb.Pos) {
				candidates = append(candidates, nb.ID)
			}
		}
	}
	if len(candidates) == 0 {
		// The plain k-anonymity broadcast, and the guard's fallback when
		// nobody else is visible in the zone.
		if f != nil {
			f.rec.Hops++
		}
		p.counts.ZoneBroadcasts++
		p.markRelayed(env, at) // the origin never re-relays its own broadcast
		if p.OnZoneRecipients != nil && env.LZD.Contains(p.net.Med.BeaconPosition(at)) {
			// A zone member holds the packet it broadcasts, whether or
			// not a relay's copy reaches it again.
			p.OnZoneRecipients(env.Seq, 1, env.LZD, []medium.NodeID{at}, p.net.Eng.Now())
		}
		if p.tap != nil {
			p.tap.ZoneBroadcast(p.net.Eng.Now(), envTrace(env), int(at), 1)
		}
		p.net.Med.Broadcast(at, &ZoneDelivery{Env: env, Step: 1}, p.sizeOf(env))
		return
	}
	var holders []medium.NodeID
	m := min(stepOneHolders, len(candidates))
	for _, idx := range p.rnd.Perm(len(candidates))[:m] {
		holders = append(holders, candidates[idx])
	}

	// Flip bits and encrypt the mask under K_pub^D so the broadcast copies
	// are not bit-identical on air (Section 3.3). The envelope carries
	// D's public key — a pseudonymous value that identifies no position.
	mask := crypt.NewBitmap(len(env.Payload), bitmapBits, p.rnd)
	mutated := *env
	mutated.Payload = mask.Apply(env.Payload)
	if env.DPub != nil {
		if ct, err := p.net.Suite.EncryptPub(env.DPub, mask); err == nil {
			mutated.EncBitmap = ct
		}
	}
	p.counts.Step1Multicasts++
	if f != nil {
		f.rec.Hops += len(holders)
	}
	// Charge the mask encryption (one public-key operation) before the
	// multicast leaves.
	p.net.NotePub(1)
	p.net.Eng.Schedule(p.net.Costs.PubEncrypt, func() {
		if p.tap != nil {
			p.tap.ZoneBroadcast(p.net.Eng.Now(), envTrace(env), int(at), 1)
		}
		zdl := &ZoneDelivery{Env: &mutated, Step: 1}
		for _, h := range holders {
			p.net.Med.Unicast(at, h, zdl, p.sizeOf(env))
		}
	})
}

func (p *Protocol) sizeOf(env *Envelope) int {
	if env.Kind == KindData {
		return p.packetSize
	}
	return 64 // control packets: NAK/ack with empty data field
}

// RelayAddsReach is a zone member's relay decision for a step-one zone
// broadcast it hears for the first time. On a lossy channel
// (par.LossRate > 0) it always relays: a broadcast gets no ARQ and every
// receiver draws its own loss, so a member within the sender's range may
// have missed it, and the other members' relays are its further chances.
// On a lossless channel it relays only when some Z_D member among
// members() (not the sender) lies within par.Range of self and beyond
// coverM of the sender; otherwise every zone member self could reach has
// already heard the sender, so a relay would add no reach. members is
// called only then, so a lossy channel gathers no candidates. self,
// sender and the members' positions come from the hello snapshot, so
// coverM is the radius within which the sender surely reached a member
// whose snapshot position lies there: par.Range where delivery reads the
// same snapshot, less where nodes have moved since it (a coverM that is
// not a number covers nobody). The simulator and the live daemon both
// call it, each with its own relay-once bookkeeping around it.
func RelayAddsReach(self, sender geo.Point, senderID medium.NodeID, members func() []medium.Neighbor, zone geo.Rect, par medium.Params, coverM float64) bool {
	if par.LossRate > 0 {
		return true
	}
	reach, cover := geo.BandOf(par.Range), geo.BandOf(coverM)
	for _, c := range members() {
		if c.ID != senderID && zone.Contains(c.Pos) && reach.Within(self, c.Pos) && !cover.Within(sender, c.Pos) {
			return true
		}
	}
	return false
}

// handleZone runs at every node that receives a zone delivery (step one
// multicast/broadcast or a step-two release).
func (p *Protocol) handleZone(at, from medium.NodeID, zdl *ZoneDelivery) {
	env := zdl.Env
	if p.OnZoneRecipients != nil {
		p.OnZoneRecipients(env.Seq, zdl.Step, env.LZD, []medium.NodeID{at}, p.net.Eng.Now())
	}
	if p.cfg.IntersectionGuard && env.Kind == KindData && zdl.Step == 1 {
		p.releaseHeld(at, env)
		p.hold(at, zdl)
	}
	// Zone broadcast propagation: a zone member decides once, when it
	// first hears a step-one broadcast, and on a lossless channel relays
	// only where RelayAddsReach finds a zone member in its range that the
	// sender's broadcast may have missed. The medium delivers on true
	// positions, and the sender and a member can each have moved the
	// snapshot's drift from their beacons, so the sender surely covered
	// only members within Range − 2·drift of its beacon. On a static
	// lossless field the packet so reaches every Z_D member that relaying
	// at every member would (the "broadcasts the pkt to the k nodes" of
	// Section 2.3). A relay reaches nodes outside Z_D only in passing, so
	// a destination that has drifted out of its zone is reached less
	// often (Fig. 16b without location updates). On a lossy channel every
	// member relays. The intersection guard replaces this with its own
	// two-step delivery.
	if env.Kind == KindData && zdl.Step == 1 && !p.cfg.IntersectionGuard {
		med := p.net.Med
		self := med.BeaconPosition(at)
		if env.LZD.Contains(self) && p.markRelayed(env, at) {
			par := med.Params()
			members := func() []medium.Neighbor { return p.zoneMembers(at, env.LZD) }
			if RelayAddsReach(self, med.BeaconPosition(from), from, members, env.LZD, par, par.Range-2*med.BeaconDrift()) {
				p.counts.ZoneRelays++
				if p.tap != nil {
					p.tap.ZoneBroadcast(p.net.Eng.Now(), envTrace(env), int(at), 1)
				}
				med.Broadcast(at, zdl, p.sizeOf(env))
			}
		}
	}
	p.recognize(at, env)
}

// markRelayed adds at to env's relay set, the broadcast's origin and the
// Z_D members that heard it, and reports whether at was new to it. Z_D
// holds about k nodes, so the set is a short slice, allocated once with
// room for 2k (at the paper default, k = 6, it ends with 8 ids on
// average).
func (p *Protocol) markRelayed(env *Envelope, at medium.NodeID) bool {
	if slices.Contains(env.relayed, at) {
		return false
	}
	if env.relayed == nil {
		env.relayed = make([]medium.NodeID, 0, 2*p.cfg.K)
	}
	env.relayed = append(env.relayed, at)
	return true
}

// zoneMembers returns the nodes other than at whose hello-snapshot
// position lies in zone, with those positions, in the Protocol's scratch
// slices: valid until the next call. All the members deciding on one
// broadcast ask at its delivery instant about its zone, so the members
// are gathered once per zone and instant, and each call only leaves at
// out of them.
func (p *Protocol) zoneMembers(at medium.NodeID, zone geo.Rect) []medium.Neighbor {
	med := p.net.Med
	if now := p.net.Eng.Now(); zone != p.zone || now != p.zoneAt { //lint:allowfloatcompare the clock's own value, stored unchanged: same instant, same snapshot
		p.zoneIDs = med.NodesWithinInto(zone, p.zoneIDs)
		p.zoneAll = p.zoneAll[:0]
		for _, id := range p.zoneIDs {
			p.zoneAll = append(p.zoneAll, medium.Neighbor{ID: id, Pos: med.BeaconPosition(id)})
		}
		p.zone, p.zoneAt = zone, now
	}
	p.zoneNbrs = p.zoneNbrs[:0]
	for _, c := range p.zoneAll {
		if c.ID != at {
			p.zoneNbrs = append(p.zoneNbrs, c)
		}
	}
	return p.zoneNbrs
}

// recognize checks whether the node holding or receiving the envelope is
// its addressee — the destination for data (pseudonym match), the source
// for confirmations and NAKs — and processes it if so.
func (p *Protocol) recognize(at medium.NodeID, env *Envelope) {
	switch env.Kind {
	case KindData:
		nd := p.net.Node(at)
		if env.PD == nd.Pseudonym || env.PD == nd.RegisteredPseudonym {
			p.deliverData(at, env)
		}
	case KindAck:
		if env.ackFor != nil && at == env.ackFor.src {
			p.handleAck(env)
		}
	case KindNAK:
		if env.ackFor != nil && at == env.ackFor.src {
			p.handleNAK(env)
		}
	}
}

// hold parks a step-one packet at a holder until the next packet (or the
// HoldRelease timer) triggers its one-hop re-broadcast.
func (p *Protocol) hold(at medium.NodeID, zdl *ZoneDelivery) {
	item := &heldItem{holder: at, zdl: zdl}
	p.held[at] = append(p.held[at], item)
	if p.cfg.HoldRelease > 0 {
		p.net.Eng.Schedule(p.cfg.HoldRelease, func() { p.release(item) })
	}
}

// releaseHeld re-broadcasts every packet this node holds for the same
// session with an older sequence number — the "upon the arrival of the next
// packet" trigger of Fig. 5c.
func (p *Protocol) releaseHeld(at medium.NodeID, trigger *Envelope) {
	items := p.held[at]
	for _, item := range items {
		e := item.zdl.Env
		if e.PS == trigger.PS && e.PD == trigger.PD && e.Seq < trigger.Seq {
			p.release(item)
		}
	}
}

// release broadcasts a held packet one hop and retires the hold.
func (p *Protocol) release(item *heldItem) {
	if item.released {
		return
	}
	item.released = true
	// Remove from the holder's list.
	items := p.held[item.holder]
	for i, it := range items {
		if it == item {
			p.held[item.holder] = append(items[:i], items[i+1:]...)
			break
		}
	}
	p.counts.Step2Releases++
	env := item.zdl.Env
	if env.flight != nil {
		env.flight.rec.Hops++
	}
	if p.tap != nil {
		p.tap.ZoneBroadcast(p.net.Eng.Now(), envTrace(env), int(item.holder), 2)
	}
	p.net.Med.Broadcast(item.holder, &ZoneDelivery{Env: env, Step: 2}, p.sizeOf(env))
}

// deliverData runs at the destination: take, charge, open, record,
// confirm. D hears the zone broadcast from its origin and from each relay:
// it takes the packet's first copy, and every later one returns here at
// once, before any charge.
func (p *Protocol) deliverData(at medium.NodeID, env *Envelope) {
	f := env.flight
	if f == nil || f.taken {
		return
	}
	f.taken = true
	sess := p.session(f.src, f.dst)
	nd := p.net.Node(at)

	// Count the operations: every packet one symmetric open, a session's
	// first packet the public-key decryptions of K_s and L_{Z_S}, a
	// guarded packet the bitmap decryption.
	setup := !sess.dest.Opened()
	p.net.NoteSym(1)
	if setup {
		p.net.NotePub(2)
	}
	guarded := len(env.EncBitmap) > 0
	if guarded {
		p.net.NotePub(1)
	}
	charge := DestCharge(p.net.Costs, setup && p.cfg.ChargeSessionSetup, guarded)

	p.net.Eng.Schedule(charge, func() {
		if f.rec.Done() {
			return // written off as undelivered
		}
		plain, err := sess.dest.OpenData(p.net.Suite, nd.Priv, env.EncSymKey, env.EncLZS, env.EncBitmap, env.Payload)
		if err != nil {
			return // not actually for us
		}
		f.rec.Path = append(f.rec.Path, at)
		now := p.net.Eng.Now()
		p.counts.Delivered++
		p.complete(f, now, true)
		if p.OnDeliver != nil {
			p.OnDeliver(f.src, f.dst, env.Seq, plain, now)
		}
		p.destFeedback(at, env, sess, f)
	})
}

// destFeedback sends the confirmation and, on sequence gaps, a NAK, both
// routed anonymously back to the source zone Z_S (decrypted from EncLZS).
// D has delivered nothing above dLastSeq, so the NAK lists every seq
// between it and this packet.
func (p *Protocol) destFeedback(at medium.NodeID, env *Envelope, sess *session, f *flight) {
	zs := sess.dest.zs
	if p.cfg.Confirm && !zs.Empty() {
		ack := &Envelope{
			Kind:      KindAck,
			PS:        p.net.Node(at).Pseudonym,
			PD:        env.PS,
			Partition: NewPartition(zs, p.field, p.hDef, p.rnd),
			Seq:       env.Seq,
			ackFor:    f,
		}
		p.counts.Acks++
		p.route(at, ack)
	}
	if p.cfg.NAKs && !zs.Empty() && env.Seq > sess.dLastSeq+1 {
		var missing []int
		for s := sess.dLastSeq + 1; s < env.Seq; s++ {
			missing = append(missing, s)
		}
		nak := &Envelope{
			Kind:      KindNAK,
			PS:        p.net.Node(at).Pseudonym,
			PD:        env.PS,
			Partition: NewPartition(zs, p.field, p.hDef, p.rnd),
			Seq:       env.Seq,
			ackFor:    f,
			nakSeqs:   missing,
		}
		p.counts.NAKs++
		p.route(at, nak)
	}
	if env.Seq > sess.dLastSeq {
		sess.dLastSeq = env.Seq
	}
}

// handleAck runs at the source when a confirmation arrives.
func (p *Protocol) handleAck(env *Envelope) {
	f := env.ackFor
	f.acked = true
	p.net.Eng.Cancel(f.retryID)
}

// handleNAK runs at the source: resend every sequence number the
// destination reported missing.
func (p *Protocol) handleNAK(env *Envelope) {
	sess := p.session(env.ackFor.src, env.ackFor.dst)
	for _, seq := range env.nakSeqs {
		if fl, ok := sess.flights[seq]; ok && !fl.rec.Done() {
			p.counts.Resends++
			p.resend(fl)
		}
	}
}
