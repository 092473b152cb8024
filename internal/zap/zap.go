// Package zap re-implements ZAP ("Anonymous Geo-Forwarding in MANETs
// through Location Cloaking", Wu, Liu, Hong & Bertino [13]) as the ALERT
// paper describes it: a destination-anonymity-only protocol that
// geo-forwards each packet to an anonymity zone cloaking the destination
// and locally broadcasts inside it. ALERT's Section 3.3 contrasts its
// two-step multicast against ZAP's intersection-attack remedy — enlarging
// the anonymity zone — which buys anonymity with ever-growing broadcast
// overhead; this implementation exposes exactly that trade-off.
package zap

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

// Config tunes the ZAP model. The zero value is the paper's ZAP, with no
// zone enlargement.
type Config struct {
	// EnlargePerPacket grows the zone side by this many meters on every
	// subsequent packet of a session — ZAP's intersection-attack remedy.
	// Zero disables enlargement.
	EnlargePerPacket float64
}

// zoneSide is the anonymity zone's initial side length in meters, sized
// like ALERT's H=5 destination zone; maxZoneSide caps enlargement.
const (
	zoneSide    = 180.0
	maxZoneSide = 700.0
)

// flood is the in-zone broadcast payload.
type flood struct {
	m *meta
	// Zone is the anonymity zone; in-zone receivers relay once.
	Zone geo.Rect
}

// TelemetryTrace implements telemetry.Traceable, attributing flood frames
// to the packet that triggered them.
func (f *flood) TelemetryTrace() int { return f.m.rec.Seq }

// meta is per-packet simulation bookkeeping.
type meta struct {
	rec       *metrics.PacketRecord
	dst       medium.NodeID
	zone      geo.Rect
	delivered bool
	relayed   map[medium.NodeID]bool
	// timeout is the give-up timer, cancelled when the packet completes.
	timeout sim.EventID
}

// Protocol is one ZAP instance.
type Protocol struct {
	net        *node.Network
	loc        *locservice.Service
	router     *gpsr.Router
	cfg        Config
	packetSize int
	col        *metrics.Collector
	rnd        *rng.Source
	sessions   map[[2]medium.NodeID]int // packets sent per pair, drives enlargement
}

// New creates the protocol and attaches handlers on every node. packetSize
// is the on-air data packet size in bytes.
func New(net *node.Network, loc *locservice.Service, cfg Config, packetSize int, src *rng.Source) *Protocol {
	p := &Protocol{
		net:        net,
		loc:        loc,
		router:     gpsr.New(net),
		cfg:        cfg,
		packetSize: packetSize,
		col:        metrics.NewCollector(),
		rnd:        src.Split("zap"),
		sessions:   make(map[[2]medium.NodeID]int),
	}
	for i := 0; i < net.N(); i++ {
		id := medium.NodeID(i)
		net.Med.Attach(id, func(_ medium.NodeID, payload any, _ int) {
			switch v := payload.(type) {
			case *gpsr.Packet:
				p.router.Handle(id, v)
			case *flood:
				p.handleFlood(id, v)
			}
		})
	}
	return p
}

// Collector returns the run's metrics.
func (p *Protocol) Collector() *metrics.Collector { return p.col }

// Router exposes the underlying router.
func (p *Protocol) Router() *gpsr.Router { return p.router }

// zoneFor builds the cloaking zone: a square of the session's current side
// length whose center is offset from D's registered position so D is not
// trivially the centroid.
func (p *Protocol) zoneFor(pos geo.Point, side float64) geo.Rect {
	half := side / 2
	off := geo.Point{
		X: p.rnd.Uniform(-half/2, half/2),
		Y: p.rnd.Uniform(-half/2, half/2),
	}
	center := p.net.Field().Clamp(geo.Point{X: pos.X + off.X, Y: pos.Y + off.Y})
	zone := geo.Rect{
		Min: geo.Point{X: center.X - half, Y: center.Y - half},
		Max: geo.Point{X: center.X + half, Y: center.Y + half},
	}
	// Clamp the zone to the field; since both the center and D's position
	// are inside the field and the offset is at most half the zone's
	// half-side, D always remains inside the clamped zone.
	zone.Min = p.net.Field().Clamp(zone.Min)
	zone.Max = p.net.Field().Clamp(zone.Max)
	return zone
}

// Send routes one packet: geo-forward to the zone's anchor, then flood the
// zone. The error is always nil; the signature matches the experiment
// harness's Proto interface.
func (p *Protocol) Send(src, dst medium.NodeID, data []byte) (*metrics.PacketRecord, error) {
	rec := p.col.Start(src, dst, p.net.Eng.Now())
	entry := p.loc.Lookup(dst)
	key := [2]medium.NodeID{src, dst}
	n := p.sessions[key]
	p.sessions[key] = n + 1
	side := min(zoneSide+float64(n)*p.cfg.EnlargePerPacket, maxZoneSide)
	m := &meta{
		rec:     rec,
		dst:     dst,
		zone:    p.zoneFor(entry.Pos, side),
		relayed: make(map[medium.NodeID]bool),
	}
	m.timeout = p.net.Eng.Schedule(gpsr.CompleteTimeout, func() { p.finish(m, 0, false) })
	anchor := m.zone.Center()
	pkt := p.router.NewPacket()
	pkt.Dest = anchor
	pkt.DeliverTo = gpsr.NoDeliverTo
	pkt.Payload = m
	pkt.Size = p.packetSize
	pkt.HopBudget = gpsr.DefaultHopBudget
	pkt.OnOutcome = func(at medium.NodeID, gp *gpsr.Packet, out gpsr.Outcome) {
		m.rec.Hops += gp.Hops
		m.rec.Path = append(m.rec.Path, gp.Path...)
		// The geo-forwarding leg is over either way; the in-zone flood
		// carries the meta, not this frame, so it can be recycled.
		defer p.router.Release(gp)
		if out != gpsr.ArrivedClosest {
			p.finish(m, 0, false)
			return
		}
		p.broadcastZone(at, m)
	}
	pkt.SetTrace(rec.Seq)
	// One symmetric seal at the source; ZAP carries no per-hop crypto.
	p.net.NoteSym(1)
	p.net.Eng.Schedule(p.net.Costs.SymEncrypt, func() { p.router.Send(src, pkt) })
	return rec, nil
}

// broadcastZone floods the anonymity zone starting at the anchor node. The
// anchor may be D itself, which never hears its own broadcast, so it
// receives the packet like any flood receiver first.
func (p *Protocol) broadcastZone(at medium.NodeID, m *meta) {
	p.receive(at, m)
	m.relayed[at] = true
	m.rec.Hops++
	p.net.Med.Broadcast(at, &flood{m: m, Zone: m.zone}, p.packetSize)
}

// handleFlood runs at every flood receiver: deliver if addressee, relay
// once if inside the zone.
func (p *Protocol) handleFlood(at medium.NodeID, f *flood) {
	m := f.m
	p.receive(at, m)
	if f.Zone.Contains(p.net.Med.BeaconPosition(at)) && !m.relayed[at] {
		m.relayed[at] = true
		m.rec.Hops++
		p.net.Med.Broadcast(at, f, p.packetSize)
	}
}

// receive delivers the packet once if at is its addressee.
func (p *Protocol) receive(at medium.NodeID, m *meta) {
	if at != m.dst || m.delivered {
		return
	}
	m.delivered = true
	p.net.NoteSym(1)
	p.net.Eng.Schedule(p.net.Costs.SymDecrypt, func() {
		p.finish(m, p.net.Eng.Now(), true)
	})
}

func (p *Protocol) finish(m *meta, at float64, delivered bool) {
	p.net.Eng.Cancel(m.timeout)
	p.col.Complete(m.rec, at, delivered)
}
