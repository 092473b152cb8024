// ALERT's routing pipeline (Sections 2.3-2.6): session setup, notify-and-go,
// the recursive partition loop between random forwarders, and the last-leg
// destination-zone delivery with the intersection-attack guard.

package core

import (
	"fmt"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/medium"
	"alertmanet/internal/metrics"
	"alertmanet/internal/rng"
)

// Send routes one application packet from src to dst and returns its
// metrics record (finalized asynchronously as the simulation runs).
//
// A failure to establish the session's cryptographic material (the
// destination key rejecting the session key or source zone) completes the
// record as undelivered and returns the error; the session stays
// unestablished so a later packet retries the handshake.
func (p *Protocol) Send(src, dst medium.NodeID, data []byte) (*metrics.PacketRecord, error) {
	now := p.net.Eng.Now()
	rec := p.col.Start(src, dst, now)
	p.counts.DataSent++

	entry := p.loc.Lookup(dst)

	sess := p.session(src, dst)
	chargeSetup := false
	if !sess.estCharge {
		// Establish the session (two public-key operations, charged to
		// the first packet).
		zs := geo.DestZone(p.field, p.net.Med.BeaconPosition(src), p.hDef, geo.Vertical)
		key, encKey, encLZS, err := NewSession(p.net.Suite, entry.Pub, zs, p.rnd)
		if err != nil {
			p.col.Complete(rec, 0, false)
			return rec, err
		}
		sess.estCharge = true
		sess.key, sess.encKey, sess.encLZS = key, encKey, encLZS
		p.net.NotePub(2) // the ops happen regardless of latency billing
		chargeSetup = p.cfg.ChargeSessionSetup
	}
	p.net.NoteSym(1) // per-packet payload seal

	zd := geo.DestZone(p.field, entry.Pos, p.hDef, geo.Vertical)
	env := &Envelope{
		Kind: KindData,
		PS:   p.net.Node(src).Pseudonym,
		PD:   entry.Pseudonym,
		// The cut direction is drawn before the seal below: rng order.
		Partition: NewPartition(zd, p.field, p.hDef, p.rnd),
		EncLZS:    sess.encLZS,
		DPub:      entry.Pub,
		EncSymKey: sess.encKey,
		Payload:   crypt.SymSeal(sess.key, data, p.rnd),
		Seq:       sess.nextSeq,
	}
	sess.nextSeq++

	f := &flight{env: env, rec: rec, src: src, dst: dst}
	env.flight = f
	sess.flights[env.Seq] = f

	if p.cfg.CompleteTimeout > 0 {
		f.timeoutID = p.net.Eng.Schedule(p.cfg.CompleteTimeout, func() { p.complete(f, 0, false) })
	}

	delay := SourceCharge(p.net.Costs, chargeSetup)

	launch := func() {
		if p.cfg.Confirm {
			p.armRetry(f)
		}
		p.route(src, env)
	}

	if p.cfg.NotifyAndGo {
		p.notifyAndGo(src, delay, launch)
	} else {
		p.net.Eng.Schedule(delay, launch)
	}
	return rec, nil
}

// NewSession establishes an S-D session's cryptographic material: it
// draws the session key K_s from rnd and encrypts it and the source zone
// zs under the destination's public key — the two public-key operations a
// source performs on a session's first packet (Section 2.5).
func NewSession(suite *crypt.FastSuite, destPub crypt.PubKey, zs geo.Rect, rnd *rng.Source) (key crypt.SymKey, encKey, encLZS []byte, err error) {
	key = crypt.NewSymKey(rnd)
	if encKey, err = suite.EncryptPub(destPub, key[:]); err != nil {
		return key, nil, nil, fmt.Errorf("core: session key encryption: %w", err)
	}
	if encLZS, err = suite.EncryptPub(destPub, encodeRect(zs)); err != nil {
		return key, nil, nil, fmt.Errorf("core: source zone encryption: %w", err)
	}
	return key, encKey, encLZS, nil
}

// DestSession is the destination's half of an S-D session: K_s and the
// source zone Z_S, and whether a packet has opened them yet. The simulator
// keeps one per session and the live daemon one per flow; both open every
// data envelope through OpenData.
type DestSession struct {
	key    crypt.SymKey
	zs     geo.Rect
	opened bool
}

// Opened reports whether the session's first packet has opened K_s and
// Z_S, so a packet no longer pays their public-key decryptions.
func (s *DestSession) Opened() bool { return s.opened }

// OpenData opens a data envelope's ciphertext fields at the destination in
// three steps: on the session's first packet the public-key decryptions of
// K_s (encSymKey) and the source zone (encLZS), then a guarded packet's
// bitmap (encBitmap, empty when unguarded), then the payload under K_s. It
// returns the plaintext. An error means the envelope was not sealed to
// priv or is malformed, and leaves the session as it was. A source zone
// that does not open is left empty, so feedback to Z_S has nowhere to go.
func (s *DestSession) OpenData(suite *crypt.FastSuite, priv crypt.PrivKey, encSymKey, encLZS, encBitmap, payload []byte) ([]byte, error) {
	key, zs := s.key, s.zs
	if !s.opened {
		raw, err := suite.DecryptPub(priv, encSymKey)
		if err != nil {
			return nil, fmt.Errorf("core: session key: %w", err)
		}
		if len(raw) != len(key) {
			return nil, fmt.Errorf("core: session key of %d bytes", len(raw))
		}
		copy(key[:], raw)
		if raw, err := suite.DecryptPub(priv, encLZS); err == nil {
			zs, _ = decodeRect(raw)
		}
	}
	if len(encBitmap) > 0 {
		mask, err := suite.DecryptPub(priv, encBitmap)
		if err != nil {
			return nil, fmt.Errorf("core: bitmap: %w", err)
		}
		if len(mask) != len(payload) {
			return nil, fmt.Errorf("core: bitmap of %d bytes for a %d-byte payload", len(mask), len(payload))
		}
		payload = crypt.Bitmap(mask).Apply(payload)
	}
	plain, err := crypt.SymOpen(key, payload)
	if err != nil {
		return nil, fmt.Errorf("core: payload: %w", err)
	}
	s.key, s.zs, s.opened = key, zs, true
	return plain, nil
}

// SourceCharge is the latency a source charges a data packet before it
// leaves: one symmetric seal, plus the session's two public-key
// encryptions when setup is billed to this, its first, packet.
func SourceCharge(c crypt.CostModel, setup bool) float64 {
	if setup {
		return c.SymEncrypt + 2*c.PubEncrypt
	}
	return c.SymEncrypt
}

// DestCharge is the latency the destination charges a data packet before
// delivering it: one symmetric open, the session's two public-key
// decryptions when setup is billed to this, its first, packet, and the
// public-key decryption of a guarded packet's bitmap.
func DestCharge(c crypt.CostModel, setup, guarded bool) float64 {
	charge := c.SymDecrypt
	if setup {
		charge += 2 * c.PubDecrypt
	}
	if guarded {
		charge += c.PubDecrypt
	}
	return charge
}

// NewPartition is a fresh envelope's partition state toward Z_D = lzd: the
// whole field to divide, none of the h divisions spent, and a first cut
// direction drawn from rnd.
func NewPartition(lzd, field geo.Rect, h int, rnd *rng.Source) Partition {
	dir := geo.Vertical
	if rnd.Bernoulli(0.5) {
		dir = geo.Horizontal
	}
	return Partition{LZD: lzd, Dir: dir, Hmax: h, Zone: field}
}

// notifyAndGo implements Section 2.6: the source notifies its neighbors
// (piggybacked on hello beacons), then the source and every neighbor wait a
// random time in [t, t+t0]; neighbors emit covering packets with no valid
// TTL while the source emits the real packet, hiding it among eta+1
// transmissions.
func (p *Protocol) notifyAndGo(src medium.NodeID, extraDelay float64, launch func()) {
	t, t0 := p.cfg.NotifyT, p.cfg.NotifyT0
	p.nbrs = p.net.Med.NeighborsInto(src, p.nbrs)
	for _, nb := range p.nbrs {
		nb := nb
		wait := p.rnd.Uniform(t, t+t0)
		p.net.Eng.Schedule(wait, func() {
			junk := make([]byte, coverSize)
			p.rnd.Read(junk)
			p.counts.CoversSent++
			p.net.Med.Broadcast(nb.ID, &coverPacket{Junk: junk}, coverSize)
		})
	}
	wait := p.rnd.Uniform(t, t+t0)
	p.net.Eng.Schedule(extraDelay+wait, launch)
}

// Step is one random forwarder's partition decision (Section 2.3) for a
// packet held at pos: it reports true when the holder is in Z_D (or the
// packet rode its final leg there) and must start the zone delivery.
// Otherwise it partitions until the holder and Z_D are separated, draws a
// random TD in the half holding Z_D from rnd, and advances st; the caller
// rides GPSR to the node closest to st.TD — the next RF. alternate selects
// the paper's alternating cut order (false is the fixed-axis ablation).
// Step is pure apart from rnd: the simulator and the live daemon both call
// it, each supplying its own holder position and random stream.
func Step(st *Partition, pos geo.Point, field geo.Rect, alternate bool, rnd *rng.Source) (zoneDeliver bool) {
	if st.LZD.Contains(pos) || st.FinalLeg {
		return true
	}
	zone := st.Zone
	if !zone.Contains(pos) {
		// GPSR overshoot: the closest node to the TD sat outside the
		// aimed zone. Re-derive the partition from the whole field.
		zone = field
	}
	res := geo.SeparateWithPolicy(zone, pos, st.LZD, st.Dir, st.Hmax-st.Hdiv, alternate)
	if !res.Separated {
		// All H divisions are spent (or the zone cannot shrink
		// further) but the holder is still outside Z_D: ride one
		// final leg to a random position inside Z_D, whose closest
		// node performs the zone broadcast.
		st.FinalLeg = true
		st.TD = geo.RandomPoint(st.LZD, rnd)
	} else {
		st.Zone = res.OtherZone
		st.Hdiv += res.Cuts
		st.Dir = res.NextDir // the direction bit each RF flips (Section 2.5)
		st.TD = geo.RandomPoint(res.OtherZone, rnd)
	}
	return false
}

// route executes one forwarder's step at node `at`: Step decides between
// zone delivery and the next leg, which rides GPSR to the node closest to
// the TD — the next RF.
func (p *Protocol) route(at medium.NodeID, env *Envelope) {
	if Step(&env.Partition, p.net.Med.BeaconPosition(at), p.field, !p.cfg.FixedAxisPartition, p.rnd) {
		p.zoneDeliver(at, env)
		return
	}

	// When notify-and-go is active, the source encrypts the TTL to its
	// first relay so covering packets (TTL-less) are indistinguishable
	// from the real one (Section 2.6); only the first leg needs this —
	// forwarders beyond the source's neighborhood have no covers to
	// blend with. Without cover traffic a plain TTL suffices. Two
	// public-key operations: the source's encryption and the relay's
	// decryption.
	if p.cfg.NotifyAndGo && env.EncTTL == nil {
		if next, ok := p.router.NextGreedy(at, env.TD); ok {
			ct, err := p.net.Suite.EncryptPub(p.net.Node(next).Pub, encodeTTL(gpsr.DefaultHopBudget))
			if err == nil {
				env.EncTTL = ct
				p.net.NotePub(2)
			}
		}
	}

	pkt := p.router.NewPacket()
	pkt.Dest = env.TD
	pkt.DeliverTo = gpsr.NoDeliverTo
	pkt.Payload = env
	pkt.Size = p.packetSize
	pkt.HopBudget = gpsr.DefaultHopBudget
	pkt.OnOutcome = func(rf medium.NodeID, gp *gpsr.Packet, out gpsr.Outcome) {
		f := env.flight
		if f != nil {
			f.rec.Hops += gp.Hops
			f.rec.Path = append(f.rec.Path, gp.Path...)
		}
		// Each leg rides its own frame; this one is finished regardless
		// of how the leg ended (route() takes a fresh frame per leg).
		defer p.router.Release(gp)
		switch out {
		case gpsr.ArrivedClosest:
			if f != nil && rf != at {
				f.rec.RFs++
				if p.tap != nil {
					p.tap.RFSelected(p.net.Eng.Now(), f.rec.Seq, int(rf))
				}
			}
			p.route(rf, env)
		default:
			p.counts.LegDrops++
			p.failLeg(env)
		}
	}
	if f := env.flight; f != nil {
		pkt.SetTrace(f.rec.Seq)
	}
	p.router.Send(at, pkt)
}

// failLeg handles a dropped GPSR leg — including DroppedLink, a hop lost
// on air after the medium's link-layer ARQ spent its retries. The two
// recovery mechanisms are deliberately layered as in real stacks: the
// medium retransmits individual frames on an 802.11-like timescale
// (milliseconds), while ALERT's Confirm/NAK machinery below is end-to-end
// recovery on the protocol timescale (seconds), re-routing the whole
// packet over fresh random forwarders. Without any recovery mechanism the
// packet is simply lost and recorded; with confirmations the retry timer
// will resend, and with NAKs the destination may report the gap — either
// way the flight stays open until recovery or the completion timeout.
func (p *Protocol) failLeg(env *Envelope) {
	f := env.flight
	if f == nil {
		return // ack/NAK envelope: silently lost
	}
	if !p.cfg.Confirm && !p.cfg.NAKs {
		p.complete(f, 0, false)
	}
}

// complete finalizes a flight exactly once and retires its bookkeeping:
// once a packet is settled (and cannot be NAK-resent), the session forgets
// it, so long sessions hold state proportional to the in-flight window
// rather than to their lifetime.
func (p *Protocol) complete(f *flight, at float64, delivered bool) {
	if f == nil || f.rec.Done() {
		return
	}
	p.net.Eng.Cancel(f.timeoutID)
	p.net.Eng.Cancel(f.retryID)
	p.col.Complete(f.rec, at, delivered)
	if !p.cfg.NAKs || delivered {
		// NAK recovery can still resurrect an undelivered flight; keep
		// those until the destination reports past them.
		sess := p.session(f.src, f.dst)
		delete(sess.flights, f.env.Seq)
	}
}

// armRetry schedules a retransmission if no confirmation arrives in time.
func (p *Protocol) armRetry(f *flight) {
	p.net.Eng.Cancel(f.retryID)
	f.retryID = p.net.Eng.Schedule(confirmTimeout, func() {
		if f.acked || f.rec.Done() {
			return
		}
		if f.retries >= maxRetries {
			p.complete(f, 0, false)
			return
		}
		f.retries++
		p.counts.Resends++
		p.resend(f)
	})
}

// resend relaunches a flight's envelope from the source with a fresh
// partition state (the new route will differ — ALERT's nonfixed paths).
func (p *Protocol) resend(f *flight) {
	env := f.env
	// Refresh Z_D from the location service (positions may have moved).
	entry := p.loc.Lookup(f.dst)
	env.PD = entry.Pseudonym
	lzd := geo.DestZone(p.field, entry.Pos, p.hDef, geo.Vertical)
	env.Partition = NewPartition(lzd, p.field, p.hDef, p.rnd)
	p.armRetry(f)
	p.net.NoteSym(1)
	p.net.Eng.Schedule(p.net.Costs.SymEncrypt, func() { p.route(f.src, env) })
}
