// Package ao2p re-implements AO2P ("Ad Hoc On-Demand Position-Based Private
// Routing", Wu [10]) as described in Sections 5 and 6 of the ALERT paper,
// for use as the hop-by-hop-encryption comparator:
//
//   - Routing is GPSR-like, but each hop runs a contention phase that
//     classifies neighbors by distance to the destination and grants the
//     channel to the closest class — modeled as a fixed per-hop contention
//     delay on top of the hop-by-hop public-key cost.
//
//   - For destination anonymity, the improved AO2P replaces the real
//     destination with a virtual position on the S-D line beyond D; relays
//     aim at that position, and D itself claims the packet during
//     contention once a relay is within its radio range. This yields the
//     slightly longer paths and higher latency the paper reports.
package ao2p

import (
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/metrics"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

// contentionDelay is the per-hop contention-phase delay in seconds
// ("contention... leads to an extra delay", Section 5).
const contentionDelay = 0.05

// virtualExtMin and virtualExtMax bound the random extension of the S-D
// segment for the virtual destination (fraction of |SD| beyond D).
const (
	virtualExtMin = 0.2
	virtualExtMax = 0.5
)

// meta travels inside the gpsr packet payload.
type meta struct {
	rec *metrics.PacketRecord
	dst medium.NodeID
	// timeout is the give-up timer, cancelled when the packet completes.
	timeout sim.EventID
}

// Protocol is one AO2P instance.
type Protocol struct {
	net        *node.Network
	loc        *locservice.Service
	router     *gpsr.Router
	packetSize int
	col        *metrics.Collector
	rnd        *rng.Source
}

// New creates the protocol and attaches handlers on every node. packetSize
// is the on-air data packet size in bytes.
func New(net *node.Network, loc *locservice.Service, packetSize int, src *rng.Source) *Protocol {
	p := &Protocol{
		net:        net,
		loc:        loc,
		router:     gpsr.New(net),
		packetSize: packetSize,
		col:        metrics.NewCollector(),
		rnd:        src.Split("ao2p"),
	}
	rangeM := net.Med.Params().Range
	for i := 0; i < net.N(); i++ {
		id := medium.NodeID(i)
		net.Med.Attach(id, func(_ medium.NodeID, payload any, _ int) {
			pkt, ok := payload.(*gpsr.Packet)
			if !ok {
				return
			}
			m, ok := pkt.Payload.(*meta)
			if !ok {
				return
			}
			// Record the confirmed arrival before any branch below: the
			// short-circuits bypass Handle, and Path/Hops grow only on
			// reception.
			p.router.Receive(id, pkt)
			if id == m.dst {
				// D claimed the packet: close the routing attempt
				// through the router so its terminal counters balance.
				p.router.Finish(id, pkt, gpsr.Delivered)
				return
			}
			// Destination contention: if D can hear this relay, D
			// wins the next contention round and claims the packet.
			if p.net.Med.PositionNow(id).Within(p.net.Med.PositionNow(m.dst), rangeM) &&
				pkt.HopBudget > 0 {
				pkt.HopBudget--
				p.charge(func() {
					// The claim bypasses Router.forward, so emit its
					// forwarding event here to keep traces connected.
					if tp := p.router.Tap(); tp != nil {
						tp.Forward(p.net.Eng.Now(), pkt.TelemetryTrace(), int(id), int(m.dst), "claim")
					}
					p.router.UnicastPacket(id, m.dst, pkt)
				})
				return
			}
			// Ordinary relay: contention phase + hop-by-hop
			// re-encryption batched into one pooled event.
			p.net.NotePub(1)
			p.router.HandleAfter(contentionDelay+p.net.Costs.PubEncrypt, id, pkt)
		})
	}
	return p
}

// charge schedules fn after one hop's contention and public-key cost.
func (p *Protocol) charge(fn func()) {
	p.net.NotePub(1)
	p.net.Eng.Schedule(contentionDelay+p.net.Costs.PubEncrypt, fn)
}

// Collector returns the run's metrics.
func (p *Protocol) Collector() *metrics.Collector { return p.col }

// Router exposes the underlying router.
func (p *Protocol) Router() *gpsr.Router { return p.router }

// virtualDest picks the anonymizing position: on the ray from S through D,
// a random fraction beyond D, clamped to the field.
func (p *Protocol) virtualDest(s, d geo.Point) geo.Point {
	ext := p.rnd.Uniform(virtualExtMin, virtualExtMax)
	v := s.Lerp(d, 1+ext)
	return p.net.Field().Clamp(v)
}

// Send routes one application packet and returns its metrics record. The
// error is always nil; the signature matches the experiment harness's Proto
// interface.
func (p *Protocol) Send(src, dst medium.NodeID, data []byte) (*metrics.PacketRecord, error) {
	rec := p.col.Start(src, dst, p.net.Eng.Now())
	entry := p.loc.Lookup(dst)
	m := &meta{rec: rec, dst: dst}
	m.timeout = p.net.Eng.Schedule(gpsr.CompleteTimeout, func() { p.finish(m, nil, 0, false) })
	vd := p.virtualDest(p.net.Med.BeaconPosition(src), entry.Pos)
	pkt := p.router.NewPacket()
	pkt.Dest = vd
	pkt.DeliverTo = gpsr.NoDeliverTo
	pkt.Payload = m
	pkt.Size = p.packetSize
	pkt.HopBudget = gpsr.DefaultHopBudget
	pkt.OnOutcome = func(at medium.NodeID, gp *gpsr.Packet, out gpsr.Outcome) {
		// Delivered means D claimed the packet (the demux closes
		// that through the router). Reaching the node closest to
		// the virtual destination without D claiming it means
		// delivery failed — unless that node IS D.
		if out == gpsr.Delivered ||
			(out == gpsr.ArrivedClosest && at == m.dst) {
			// deliver retains the frame until its decryption charge
			// lands; it is released there.
			p.deliver(at, m, gp)
			return
		}
		p.finish(m, gp, 0, false)
		p.router.Release(gp)
	}
	pkt.SetTrace(rec.Seq)
	// Source-side initial encryption for the first hop.
	p.charge(func() { p.router.Send(src, pkt) })
	return rec, nil
}

// deliver runs at D: one decryption charge, then record delivery. The frame
// is retained across the charge and released once the record is written.
func (p *Protocol) deliver(at medium.NodeID, m *meta, pkt *gpsr.Packet) {
	p.net.NotePub(1)
	p.net.Eng.Schedule(p.net.Costs.PubDecrypt, func() {
		p.finish(m, pkt, p.net.Eng.Now(), true)
		p.router.Release(pkt)
	})
	_ = at
}

func (p *Protocol) finish(m *meta, pkt *gpsr.Packet, at float64, delivered bool) {
	if m.rec.Done() {
		return
	}
	p.net.Eng.Cancel(m.timeout)
	if pkt != nil {
		m.rec.Hops = pkt.Hops
		// Copy, never alias: the frame goes back to the router's pool
		// after the outcome and its Path will be rewritten.
		m.rec.Path = append(m.rec.Path[:0], pkt.Path...)
	}
	p.col.Complete(m.rec, at, delivered)
}
