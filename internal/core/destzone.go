// Destination-zone delivery (Sections 2.3 and 3.3): the last random
// forwarder either broadcasts to the k nodes of Z_D (plain k-anonymity), or
// — with the intersection guard on — multicasts a bit-flipped copy to m of
// the k nodes, which hold it and re-broadcast when the session's next
// packet arrives, so the attacker's recipient-set intersection never pins
// down D.

package core

import (
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
	if env.Kind != KindData || env.isReply || !p.cfg.IntersectionGuard {
		if f != nil {
			f.rec.Hops++
		}
		if f == nil && env.isReply {
			env.replyHops++
		}
		p.counts.ZoneBroadcasts++
		if env.relayed == nil {
			env.relayed = make(map[medium.NodeID]bool)
		}
		env.relayed[at] = true // the origin never re-relays its own broadcast
		if p.tap != nil {
			p.tap.ZoneBroadcast(p.net.Eng.Now(), envTrace(env), int(at), 1)
		}
		p.net.Med.Broadcast(at, &ZoneDelivery{Env: env, Step: 1}, p.sizeOf(env))
		return
	}

	// Intersection guard: pick m holder nodes from the neighbors inside
	// Z_D (the last RF knows zone membership from hello beacons).
	var candidates []medium.NodeID
	for _, nb := range p.net.Med.Neighbors(at) {
		if env.LZD.Contains(nb.Pos) {
			candidates = append(candidates, nb.ID)
		}
	}
	if len(candidates) == 0 {
		// Nobody else visible in the zone: fall back to broadcast.
		if f != nil {
			f.rec.Hops++
		}
		p.counts.ZoneBroadcasts++
		if p.tap != nil {
			p.tap.ZoneBroadcast(p.net.Eng.Now(), envTrace(env), int(at), 1)
		}
		p.net.Med.Broadcast(at, &ZoneDelivery{Env: env, Step: 1}, p.sizeOf(env))
		return
	}
	var holders []medium.NodeID
	if p.cfg.M > 0 {
		m := p.cfg.M
		if m > len(candidates) {
			m = len(candidates)
		}
		perm := p.rnd.Perm(len(candidates))
		for _, idx := range perm[:m] {
			holders = append(holders, candidates[idx])
		}
	} else {
		holders = p.coverHolders(at, env, candidates)
	}

	// Flip bits and encrypt the mask under K_pub^D so the broadcast copies
	// are not bit-identical on air (Section 3.3). The envelope carries
	// D's public key — a pseudonymous value that identifies no position.
	mask := crypt.NewBitmap(len(env.Payload), p.cfg.BitmapBits, p.rnd)
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

// coverHolders sizes m automatically (Config.M == 0): Section 3.3 requires
// the coverage fraction p_c to reach 1, i.e. every zone member must be
// within one hop of some holder when the held packets are re-broadcast.
// A greedy set cover over the beaconed zone members achieves that with the
// fewest holders — "a moderate value of m considering node transmission
// range; a lower transmission range leads to a higher value of m".
func (p *Protocol) coverHolders(at medium.NodeID, env *Envelope,
	candidates []medium.NodeID) []medium.NodeID {
	rangeM := p.net.Med.Params().Range
	// Candidate and member positions come from the last hello beacons.
	pos := map[medium.NodeID]geo.Point{}
	var members []medium.NodeID
	for _, nb := range p.net.Med.Neighbors(at) {
		if env.LZD.Contains(nb.Pos) {
			pos[nb.ID] = nb.Pos
			members = append(members, nb.ID)
		}
	}
	uncovered := map[medium.NodeID]bool{}
	for _, id := range members {
		uncovered[id] = true
	}
	var holders []medium.NodeID
	// Random start for anonymity, then greedy max-coverage.
	order := p.rnd.Perm(len(candidates))
	for len(uncovered) > 0 && len(holders) < len(candidates) {
		best := -1
		bestCover := -1
		for _, idx := range order {
			id := candidates[idx]
			taken := false
			for _, h := range holders {
				if h == id {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			cover := 0
			for m := range uncovered {
				if pos[id].Within(pos[m], rangeM) {
					cover++
				}
			}
			if cover > bestCover {
				best, bestCover = idx, cover
			}
		}
		if best < 0 || bestCover == 0 {
			break
		}
		h := candidates[best]
		holders = append(holders, h)
		for m := range uncovered {
			if pos[h].Within(pos[m], rangeM) {
				delete(uncovered, m)
			}
		}
	}
	if len(holders) == 0 && len(candidates) > 0 {
		holders = append(holders, candidates[p.rnd.Intn(len(candidates))])
	}
	return holders
}

func (p *Protocol) sizeOf(env *Envelope) int {
	if env.Kind == KindData {
		return p.cfg.PacketSize
	}
	return 64 // control packets: NAK/ack with empty data field
}

// handleZone runs at every node that receives a zone delivery (step one
// multicast/broadcast or a step-two release).
func (p *Protocol) handleZone(at medium.NodeID, _ medium.NodeID, zdl *ZoneDelivery) {
	env := zdl.Env
	if p.OnZoneRecipients != nil {
		p.OnZoneRecipients(env.Seq, zdl.Step, env.LZD, []medium.NodeID{at}, p.net.Eng.Now())
	}
	if p.cfg.IntersectionGuard && env.Kind == KindData && zdl.Step == 1 {
		p.releaseHeld(at, env)
		p.hold(at, zdl)
	}
	// Zone broadcast propagation: a step-one broadcast is relayed once by
	// every zone member that newly hears it, so the packet reaches all k
	// nodes of Z_D even when the broadcaster sits near (or beyond) the
	// zone edge — the "broadcasts the pkt to the k nodes" of Section 2.3,
	// and the reason ALERT out-delivers GPSR when destinations drift
	// (Fig. 16b). The intersection guard replaces this with its own
	// two-step delivery.
	if env.Kind == KindData && zdl.Step == 1 && !p.cfg.IntersectionGuard &&
		env.LZD.Contains(p.net.Med.PositionNow(at)) {
		if env.relayed == nil {
			env.relayed = make(map[medium.NodeID]bool)
		}
		if !env.relayed[at] {
			env.relayed[at] = true
			if p.tap != nil {
				p.tap.ZoneBroadcast(p.net.Eng.Now(), envTrace(env), int(at), 1)
			}
			p.net.Med.Broadcast(at, zdl, p.sizeOf(env))
		}
	}
	p.recognize(at, env)
}

// recognize checks whether the node holding or receiving the envelope is
// its addressee — the destination for data (pseudonym match), the source
// for confirmations and NAKs — and processes it if so.
func (p *Protocol) recognize(at medium.NodeID, env *Envelope) {
	switch env.Kind {
	case KindData:
		if env.isReply {
			p.deliverReply(at, env)
			return
		}
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

// deliverData runs at the destination: decrypt, dedup, record, confirm.
func (p *Protocol) deliverData(at medium.NodeID, env *Envelope) {
	f := env.flight
	if f == nil || f.delivered {
		return
	}
	sess := p.session(f.src, f.dst)
	nd := p.net.Node(at)

	// Compose the decryption charges: first packet of a session costs
	// the public-key decryptions of K_s and L_{Z_S}; every packet costs
	// one symmetric open; a guarded packet costs the bitmap decryption.
	charge := p.net.Costs.SymDecrypt
	p.net.NoteSym(1)
	if !sess.dEstablished {
		p.net.NotePub(2)
		if p.cfg.ChargeSessionSetup {
			charge += 2 * p.net.Costs.PubDecrypt
		}
	}
	if env.EncBitmap != nil {
		p.net.NotePub(1)
		charge += p.net.Costs.PubDecrypt
	}

	p.net.Eng.Schedule(charge, func() {
		if f.delivered || (f.completed && !f.delivered) {
			// Duplicate, or already written off as undelivered.
			return
		}
		if !sess.dEstablished {
			keyRaw, err := p.net.Suite.DecryptPub(nd.Priv, env.EncSymKey)
			if err != nil || len(keyRaw) != len(sess.dKey) {
				return // not actually for us
			}
			copy(sess.dKey[:], keyRaw)
			if zsRaw, err := p.net.Suite.DecryptPub(nd.Priv, env.EncLZS); err == nil {
				if zs, err := decodeRect(zsRaw); err == nil {
					sess.dZS = zs
				}
			}
			sess.dEstablished = true
		}
		payload := env.Payload
		if env.EncBitmap != nil {
			maskRaw, err := p.net.Suite.DecryptPub(nd.Priv, env.EncBitmap)
			if err != nil || len(maskRaw) != len(payload) {
				return
			}
			payload = crypt.Bitmap(maskRaw).Apply(payload)
		}
		plain, err := crypt.SymOpen(sess.dKey, payload)
		if err != nil {
			return
		}
		f.delivered = true
		f.rec.Path = append(f.rec.Path, at)
		now := p.net.Eng.Now()
		p.counts.Delivered++
		p.complete(f, now, true)
		if p.OnDeliver != nil {
			p.OnDeliver(f.src, f.dst, env.Seq, plain, now)
		}
		if env.isRequest {
			p.respond(at, env, sess, plain)
		}
		p.destFeedback(at, env, sess, f)
	})
}

// destFeedback sends the confirmation and, on sequence gaps, a NAK, both
// routed anonymously back to the source zone Z_S (decrypted from EncLZS).
func (p *Protocol) destFeedback(at medium.NodeID, env *Envelope, sess *session, f *flight) {
	sess.dReceived[env.Seq] = true
	if p.cfg.Confirm && !sess.dZS.Empty() {
		ack := &Envelope{
			Kind:   KindAck,
			PS:     p.net.Node(at).Pseudonym,
			PD:     env.PS,
			LZD:    sess.dZS,
			Dir:    p.randomDir(),
			Hmax:   p.hDef,
			Zone:   p.field,
			Seq:    env.Seq,
			ackFor: f,
		}
		p.counts.Acks++
		p.route(at, ack)
	}
	if p.cfg.NAKs && !sess.dZS.Empty() && env.Seq > sess.dLastSeq+1 {
		var missing []int
		for s := sess.dLastSeq + 1; s < env.Seq; s++ {
			if !sess.dReceived[s] {
				missing = append(missing, s)
			}
		}
		if len(missing) > 0 {
			nak := &Envelope{
				Kind:    KindNAK,
				PS:      p.net.Node(at).Pseudonym,
				PD:      env.PS,
				LZD:     sess.dZS,
				Dir:     p.randomDir(),
				Hmax:    p.hDef,
				Zone:    p.field,
				Seq:     env.Seq,
				ackFor:  f,
				nakSeqs: missing,
			}
			p.counts.NAKs++
			p.route(at, nak)
		}
	}
	if env.Seq > sess.dLastSeq {
		sess.dLastSeq = env.Seq
	}
}

// handleAck runs at the source when a confirmation arrives.
func (p *Protocol) handleAck(env *Envelope) {
	f := env.ackFor
	f.acked = true
	if f.hasRetry {
		p.net.Eng.Cancel(f.retryID)
		f.hasRetry = false
	}
}

// handleNAK runs at the source: resend every sequence number the
// destination reported missing.
func (p *Protocol) handleNAK(env *Envelope) {
	sess := p.session(env.ackFor.src, env.ackFor.dst)
	for _, seq := range env.nakSeqs {
		if fl, ok := sess.flights[seq]; ok && !fl.delivered && !fl.completed {
			p.counts.Resends++
			p.resend(fl)
		}
	}
}
