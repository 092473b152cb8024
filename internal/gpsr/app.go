// The GPSR baseline protocol of the evaluation (Section 5): plain
// geographic routing of application packets to the destination's location
// looked up from the location service, with no anonymity machinery. This is
// the "base-line GPSR algorithm" every figure compares against.

package gpsr

import (
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/metrics"
	"alertmanet/internal/node"
	"alertmanet/internal/sim"
)

// App is the GPSR baseline protocol instance.
type App struct {
	net        *node.Network
	loc        *locservice.Service
	router     *Router
	packetSize int
	col        *metrics.Collector
}

// NewApp creates the baseline and attaches its handlers on every node.
// packetSize is the on-air data packet size in bytes.
func NewApp(net *node.Network, loc *locservice.Service, packetSize int) *App {
	a := &App{
		net:        net,
		loc:        loc,
		router:     New(net),
		packetSize: packetSize,
		col:        metrics.NewCollector(),
	}
	a.router.AttachAll()
	return a
}

// Collector returns the run's metrics.
func (a *App) Collector() *metrics.Collector { return a.col }

// Router exposes the underlying router.
func (a *App) Router() *Router { return a.router }

// Send routes one application packet from src to dst by plain GPSR and
// returns its metrics record. The error is always nil; the signature
// matches the experiment harness's Proto interface, where ALERT's session
// setup can fail.
func (a *App) Send(src, dst medium.NodeID, data []byte) (*metrics.PacketRecord, error) {
	rec := a.col.Start(src, dst, a.net.Eng.Now())
	entry := a.loc.Lookup(dst)
	// The give-up timer writes off a packet that never completes; one that
	// completes cancels it, so the queue holds no timer for a settled
	// packet. The record completes once, and cancelling a fired or
	// cancelled timer is a no-op, so finish needs no flag of its own.
	var timeout sim.EventID
	finish := func(at float64, delivered bool) {
		a.net.Eng.Cancel(timeout)
		a.col.Complete(rec, at, delivered)
	}
	timeout = a.net.Eng.Schedule(CompleteTimeout, func() { finish(0, false) })
	pkt := a.router.NewPacket()
	pkt.Dest = entry.Pos
	pkt.DeliverTo = dst
	pkt.Payload = data
	pkt.Size = a.packetSize
	pkt.HopBudget = DefaultHopBudget
	pkt.OnOutcome = func(_ medium.NodeID, gp *Packet, out Outcome) {
		rec.Hops = gp.Hops
		// Copy, never alias: the frame is recycled below and its Path
		// backing array will be rewritten by the next packet.
		rec.Path = append(rec.Path[:0], gp.Path...)
		finish(a.net.Eng.Now(), out == Delivered)
		a.router.Release(gp)
	}
	pkt.SetTrace(rec.Seq)
	a.router.Send(src, pkt)
	return rec, nil
}
