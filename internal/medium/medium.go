// Package medium models the wireless channel and MAC layer that NS-2
// provided in the paper's evaluation: a unit-disk radio with a standard
// 250 m transmission range, per-packet transmission and contention delay,
// optional random loss, and hello-beacon neighbor discovery with bounded
// staleness (Section 5.2).
//
// The model is deliberately simple — the evaluation's conclusions rest on
// connectivity, hop counts and delay composition, not on 802.11 bit-level
// behaviour — but it keeps the two properties the figures depend on:
//
//  1. A transmission only reaches nodes within Range at delivery time, so
//     mobility can break links mid-flight.
//  2. Each hop costs transmission time plus a contention jitter, so longer
//     paths and busier protocols accumulate proportionally more delay.
package medium

import (
	"fmt"
	"math"
	"slices"

	"alertmanet/internal/geo"
	"alertmanet/internal/mobility"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
	"alertmanet/internal/telemetry"
)

// NodeID identifies a node; ids are dense indices into the mobility model.
type NodeID int

// Broadcast addressee: delivery to every node in range.
const BroadcastID NodeID = -1

// Params configures the channel.
type Params struct {
	// Range is the radio range in meters (250 m in the paper).
	Range float64
	// Bitrate is the channel rate in bits/s; transmission delay is
	// size*8/Bitrate (2 Mb/s matches the NS-2 802.11 default era).
	Bitrate float64
	// MACDelayMean is the mean of the exponential per-transmission
	// contention/queueing jitter, seconds.
	MACDelayMean float64
	// LossRate is the probability an otherwise-deliverable transmission
	// is lost (collisions, fading).
	LossRate float64
	// HelloInterval is the period of neighbor beacons, seconds. Neighbor
	// tables reflect positions as of the last beacon tick, so faster
	// nodes have staler tables.
	HelloInterval float64
	// Retries is the link-layer retransmission budget for unicasts, the
	// ARQ that 802.11's MAC gave the paper's NS-2 runs for free. After a
	// data frame is transmitted the receiver answers with an ACK frame;
	// if either is lost the sender retransmits, up to Retries times, each
	// wait doubling from RetryBackoff. Retries = 0 disables the ACK
	// machinery entirely and reproduces a fire-and-forget channel.
	Retries int
	// AckSize is the on-air size of an ACK frame in bytes (802.11 ACKs
	// are 14 bytes). ACK bytes and delays are charged to the same
	// counters and clock as data so energy and latency stay honest.
	AckSize int
	// RetryBackoff is the base retransmission wait in seconds; attempt k
	// retransmits after RetryBackoff * 2^(k-1).
	RetryBackoff float64
}

// DefaultParams returns the paper's channel configuration.
func DefaultParams() Params {
	return Params{
		Range:         250,
		Bitrate:       2e6,
		MACDelayMean:  0.5e-3,
		LossRate:      0,
		HelloInterval: 1.0,
		Retries:       3,
		AckSize:       14,
		RetryBackoff:  1e-3,
	}
}

// SendOutcome is the terminal fate of one unicast send, as reported to the
// sender's outcome callback once the ARQ gives up or succeeds.
type SendOutcome uint8

const (
	// SendDelivered: the data frame reached the receiver's handler (even
	// if every ACK was subsequently lost — the frame's fate is what
	// counts, and the handler fires at most once per send).
	SendDelivered SendOutcome = iota
	// SendLost: the retry budget is exhausted and the receiver never got
	// the frame.
	SendLost
	// SendCompromised: the sender is a compromised node sinking its own
	// transmissions (Section 2.1's DoS attacker), so nothing went on air.
	SendCompromised
)

func (o SendOutcome) String() string {
	switch o {
	case SendDelivered:
		return "delivered"
	case SendLost:
		return "lost"
	case SendCompromised:
		return "compromised"
	}
	return "unknown"
}

// Handler receives a delivered transmission.
type Handler func(from NodeID, payload any, size int)

// Counters tallies channel activity for the evaluation metrics.
type Counters struct {
	UnicastsSent   uint64
	BroadcastsSent uint64
	Delivered      uint64 // individual receptions (a broadcast counts once per receiver)
	DroppedRange   uint64 // receiver out of range at delivery time
	DroppedLoss    uint64 // random loss
	// DroppedCompromised counts frames sunk by compromised relays.
	DroppedCompromised uint64
	// Retransmissions counts data-frame transmissions beyond each send's
	// first attempt (every retransmission also lands in the per-attempt
	// counters above, so DroppedLoss et al. count physical frames).
	Retransmissions uint64
	// AcksSent counts ACK frames transmitted; AcksLost counts ACK frames
	// that failed on air (range or loss — kept out of DroppedRange and
	// DroppedLoss so those remain data-frame counters).
	AcksSent uint64
	AcksLost uint64
	// Duplicates counts data frames received again after a first
	// successful reception (the retransmission raced a lost ACK); the
	// handler does not re-fire for them.
	Duplicates uint64
	// TxBytes and RxBytes accumulate payload bytes transmitted and
	// received (energy accounting).
	TxBytes uint64
	RxBytes uint64
}

// Transmission is what a radio observer sees when a node sends: the frame
// leaves From at time At from position FromPos. Adversary models subscribe
// via TapSend; they see frames, sizes and directions — exactly the
// eavesdropping capability of Section 2.1 — but not any honest-node state.
type Transmission struct {
	From    NodeID
	To      NodeID // BroadcastID for local broadcasts
	At      float64
	FromPos geo.Point
	Size    int
	Payload any
}

// Reception is one successful delivery, observable by an adversary close to
// the receiver (used by the intersection-attack tracker, Section 3.3).
type Reception struct {
	From    NodeID
	To      NodeID
	At      float64
	ToPos   geo.Point
	Size    int
	Payload any
}

// Medium is the shared wireless channel.
type Medium struct {
	eng      *sim.Engine
	mob      mobility.Model
	par      Params
	src      *rng.Source
	handlers []Handler
	counters Counters
	sendTaps []func(Transmission)
	recvTaps []func(Reception)
	// compromised nodes sink every frame they would send (Section 2.1's
	// DoS-by-intrusion attacker); nil until the first Compromise call.
	compromised map[NodeID]bool
	// beacons caches the current hello tick's position snapshot and a
	// uniform spatial grid over it, so each Neighbors query touches only
	// the 3x3 grid cells around the querier instead of every node, and a
	// broadcast sweep skips the nodes whose beacon is out of its reach.
	beacons beaconCache
	// nowPos caches a spatial grid over true positions at the current
	// engine instant, shared by zone queries issued at the same time.
	nowPos   posGrid
	nowAt    float64
	nowValid bool
	// arqFree and bcastFree recycle send state machines; a steady-state
	// unicast or broadcast allocates nothing.
	arqFree   []*arqSend
	bcastFree []*bcastSend
	// txByNode counts transmissions per node (load-balance metrics).
	txByNode []uint64
	// tap, when non-nil, observes every frame/ACK transmission, reception
	// and loss.
	tap *telemetry.Tap
}

// posGrid is a position snapshot bucketed into a uniform spatial grid.
// Buckets hold node ids in ascending order (rebuild inserts ids 0..n-1), so
// any fixed cell-visit order yields a deterministic node order. The grid is
// rebuilt in place: bucket slices are truncated and refilled rather than
// reallocated, so steady-state rebuilds allocate nothing once the map and
// buckets have reached their high-water capacity.
type posGrid struct {
	pos  []geo.Point
	cell float64
	grid map[[2]int][]NodeID
	// live lists the keys of currently non-empty buckets, so rebuild can
	// truncate exactly the buckets the previous snapshot populated.
	live [][2]int
}

func (g *posGrid) rebuild(mob mobility.Model, at, cell float64) {
	n := mob.N()
	if g.pos == nil {
		g.pos = make([]geo.Point, n)
	}
	if g.grid == nil {
		g.grid = make(map[[2]int][]NodeID, n)
	}
	for _, k := range g.live {
		g.grid[k] = g.grid[k][:0]
	}
	g.live = g.live[:0]
	g.cell = cell
	// Bucket ids 0..n-1 in order, so bucket contents stay in ascending id
	// order — the determinism the query paths rely on.
	for id := 0; id < n; id++ {
		p := mob.Position(id, at)
		g.pos[id] = p
		key := g.key(p)
		bucket := g.grid[key]
		if len(bucket) == 0 {
			g.live = append(g.live, key)
		}
		g.grid[key] = append(bucket, NodeID(id))
	}
}

func (g *posGrid) key(p geo.Point) [2]int {
	return [2]int{int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))}
}

// beaconCache is one hello tick's position snapshot bucketed into cells of
// side Range. The tick is the integer beacon index, so cache-hit detection
// is an exact integer compare rather than a float one; at is the tick's
// beacon instant.
type beaconCache struct {
	tick  int
	at    float64
	valid bool
	posGrid
}

// beaconsNow returns the current hello tick's snapshot, building it on the
// tick's first query.
func (m *Medium) beaconsNow() *beaconCache {
	b := &m.beacons
	if tick := m.helloTick(); !b.valid || b.tick != tick {
		b.tick = tick
		b.at = float64(tick) * m.par.HelloInterval
		b.valid = true
		b.rebuild(m.mob, b.at, m.par.Range)
	}
	return b
}

// New creates a medium over the given mobility model. Non-positive radio
// parameters (Range, Bitrate, HelloInterval) are an error.
func New(eng *sim.Engine, mob mobility.Model, par Params, src *rng.Source) (*Medium, error) {
	if par.Range <= 0 || par.Bitrate <= 0 || par.HelloInterval <= 0 {
		return nil, fmt.Errorf("medium: invalid params %+v", par)
	}
	if par.Retries < 0 {
		return nil, fmt.Errorf("medium: negative retry budget %d", par.Retries)
	}
	if par.Retries > 0 && (par.AckSize <= 0 || par.RetryBackoff <= 0) {
		return nil, fmt.Errorf("medium: ARQ enabled (Retries=%d) but AckSize=%d, RetryBackoff=%g",
			par.Retries, par.AckSize, par.RetryBackoff)
	}
	return &Medium{
		eng:      eng,
		mob:      mob,
		par:      par,
		src:      src.Split("medium"),
		handlers: make([]Handler, mob.N()),
		txByNode: make([]uint64, mob.N()),
	}, nil
}

// MustNew is New for callers whose parameters are known good (tests); it
// panics on error.
func MustNew(eng *sim.Engine, mob mobility.Model, par Params, src *rng.Source) *Medium {
	m, err := New(eng, mob, par, src)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the channel configuration.
func (m *Medium) Params() Params { return m.par }

// SetLossRate changes the random-loss probability mid-run; experiments use
// it to inject failure windows (e.g. jamming intervals).
func (m *Medium) SetLossRate(p float64) { m.par.LossRate = p }

// Compromise marks a node as adversary-controlled in the packet-sinking
// sense of Section 2.1 ("intrude on some specific vulnerable nodes to
// control their behavior, e.g., with denial-of-service attacks, which may
// cut the routing"): the node keeps receiving and beaconing like a
// legitimate neighbor, but every frame it would transmit is silently
// discarded, so any route through it dies there.
func (m *Medium) Compromise(id NodeID) {
	if m.compromised == nil {
		m.compromised = make(map[NodeID]bool)
	}
	m.compromised[id] = true
}

// Restore returns a compromised node to normal operation.
func (m *Medium) Restore(id NodeID) { delete(m.compromised, id) }

// Compromised reports whether a node is currently sinking packets.
func (m *Medium) Compromised(id NodeID) bool { return m.compromised[id] }

// SetTap attaches a telemetry tap observing frame-level channel activity.
// A nil tap (the default) disables medium telemetry; emit sites are guarded
// by a branch on the field, so the disabled path costs nothing but that
// branch.
func (m *Medium) SetTap(t *telemetry.Tap) { m.tap = t }

// Counters returns a snapshot of channel activity.
func (m *Medium) Counters() Counters { return m.counters }

// TxByNode returns a copy of the per-node transmission counts.
func (m *Medium) TxByNode() []uint64 {
	out := make([]uint64, len(m.txByNode))
	copy(out, m.txByNode)
	return out
}

// Attach registers the packet handler for a node. A node without a handler
// silently drops receptions.
func (m *Medium) Attach(id NodeID, h Handler) { m.handlers[id] = h }

// N returns the number of nodes on the channel.
func (m *Medium) N() int { return len(m.handlers) }

// PositionNow returns a node's true position at the current simulation time.
func (m *Medium) PositionNow(id NodeID) geo.Point {
	return m.mob.Position(int(id), m.eng.Now())
}

// txDelay returns transmission plus contention delay for a payload size.
func (m *Medium) txDelay(size int) float64 {
	d := float64(size*8) / m.par.Bitrate
	if m.par.MACDelayMean > 0 {
		d += m.src.Exponential(m.par.MACDelayMean)
	}
	return d
}

// TapSend subscribes an observer to every transmission on the channel.
func (m *Medium) TapSend(fn func(Transmission)) {
	m.sendTaps = append(m.sendTaps, fn)
}

// TapRecv subscribes an observer to every successful delivery.
func (m *Medium) TapRecv(fn func(Reception)) {
	m.recvTaps = append(m.recvTaps, fn)
}

func (m *Medium) notifySend(from, to NodeID, payload any, size int) {
	if len(m.sendTaps) == 0 {
		return
	}
	tx := Transmission{
		From:    from,
		To:      to,
		At:      m.eng.Now(),
		FromPos: m.mob.Position(int(from), m.eng.Now()),
		Size:    size,
		Payload: payload,
	}
	for _, fn := range m.sendTaps {
		fn(tx)
	}
}

func (m *Medium) notifyRecv(from, to NodeID, payload any, size int) {
	if len(m.recvTaps) == 0 {
		return
	}
	rx := Reception{
		From:    from,
		To:      to,
		At:      m.eng.Now(),
		ToPos:   m.mob.Position(int(to), m.eng.Now()),
		Size:    size,
		Payload: payload,
	}
	for _, fn := range m.recvTaps {
		fn(rx)
	}
}

// Unicast transmits payload from one node to another with link-layer ARQ
// (see UnicastOutcome) but without reporting the send's fate. Returns the
// scheduled first-attempt delivery time.
func (m *Medium) Unicast(from, to NodeID, payload any, size int) float64 {
	return m.UnicastOutcome(from, to, payload, size, nil)
}

// OutcomeSink receives a unicast send's terminal fate: the pre-allocated
// counterpart of UnicastOutcome's done callback. Hot-path senders (the
// router's forward) implement it on the in-flight packet itself so
// reporting a hop's fate costs no closure allocation.
type OutcomeSink interface {
	SendResolved(out SendOutcome)
}

// UnicastOutcome transmits payload from one node to another and reports the
// send's terminal fate to done (which may be nil). Delivery succeeds if the
// receiver is within Range when a data-frame transmission completes and the
// loss coin does not fire; with Params.Retries > 0 the receiver ACKs each
// data frame and the sender retransmits on silence, so a send only counts as
// lost after the whole retry budget fails. done fires exactly once, when the
// ARQ resolves: at ACK reception or retry exhaustion (Retries > 0), or at
// first-attempt resolution (Retries = 0). The handler fires at most once per
// send — duplicate data receptions are absorbed by the ARQ. Returns the
// scheduled first-attempt delivery time.
func (m *Medium) UnicastOutcome(from, to NodeID, payload any, size int, done func(SendOutcome)) float64 {
	m.counters.UnicastsSent++
	s := m.newArq(from, to, payload, size)
	s.done = done
	return s.attempt()
}

// UnicastSink is UnicastOutcome with a pre-allocated OutcomeSink in place of
// the done closure; the allocation-free variant for per-hop forwarding.
func (m *Medium) UnicastSink(from, to NodeID, payload any, size int, sink OutcomeSink) float64 {
	m.counters.UnicastsSent++
	s := m.newArq(from, to, payload, size)
	s.sink = sink
	return s.attempt()
}

// newArq takes a send state machine from the pool (or allocates the pool's
// next entry) and initializes it for a fresh send.
func (m *Medium) newArq(from, to NodeID, payload any, size int) *arqSend {
	var s *arqSend
	if n := len(m.arqFree); n > 0 {
		s = m.arqFree[n-1]
		m.arqFree[n-1] = nil
		m.arqFree = m.arqFree[:n-1]
	} else {
		s = new(arqSend)
	}
	*s = arqSend{m: m, from: from, to: to, payload: payload, size: size}
	return s
}

// arqSend phases name the single event each send has in flight at any
// moment; RunEvent dispatches on the phase set when the event was scheduled.
const (
	arqPhaseArrive uint8 = iota // data frame reaching the receiver
	arqPhaseAck                 // ACK frame reaching the sender
	arqPhaseRetry               // backoff expiring into a retransmission
)

// arqSend is one logical unicast send working through its retry budget. It
// is a strictly sequential state machine — at most one scheduled event
// references it at any time, and none after it resolves — which is what
// makes pooling it safe: resolve() returns it to the medium's pool after
// the fate callback fires, and the next Unicast reuses it.
type arqSend struct {
	m        *Medium
	from, to NodeID
	payload  any
	size     int
	done     func(SendOutcome)
	sink     OutcomeSink
	// phase selects the RunEvent body for the one event in flight.
	phase uint8
	// attempts counts data-frame transmissions performed (first = 1).
	attempts int
	// delivered is set once the data frame reaches the handler; later
	// receptions of the same send are duplicates and the worst remaining
	// outcome is SendDelivered.
	delivered bool
	// resolved guards the single done callback.
	resolved bool
}

// RunEvent implements sim.Runner.
func (s *arqSend) RunEvent() {
	switch s.phase {
	case arqPhaseArrive:
		s.arrive()
	case arqPhaseAck:
		s.ackArrive()
	default:
		s.attempt()
	}
}

func (s *arqSend) resolve(out SendOutcome) {
	if s.resolved {
		return
	}
	s.resolved = true
	if s.done != nil {
		s.done(out)
	}
	if s.sink != nil {
		s.sink.SendResolved(out)
	}
	// Resolved means no scheduled event references this machine anymore;
	// recycle it. References are dropped so payloads can be collected.
	m := s.m
	s.payload = nil
	s.done = nil
	s.sink = nil
	m.arqFree = append(m.arqFree, s)
}

// attempt transmits the data frame once and schedules its delivery; returns
// the scheduled delivery time.
func (s *arqSend) attempt() float64 {
	m := s.m
	s.attempts++
	if m.compromised[s.from] {
		m.counters.DroppedCompromised++
		if m.tap != nil {
			m.tap.FrameLost(m.eng.Now(), int(s.from), int(s.to), telemetry.TraceOf(s.payload), "compromised")
		}
		if s.delivered {
			s.resolve(SendDelivered)
		} else {
			s.resolve(SendCompromised)
		}
		return m.eng.Now()
	}
	if s.attempts > 1 {
		m.counters.Retransmissions++
	}
	m.counters.TxBytes += uint64(s.size)
	m.txByNode[s.from]++
	m.notifySend(s.from, s.to, s.payload, s.size)
	if m.tap != nil {
		m.tap.FrameTx(m.eng.Now(), int(s.from), int(s.to), telemetry.TraceOf(s.payload), s.size, s.attempts)
	}
	at := m.eng.Now() + m.txDelay(s.size)
	s.phase = arqPhaseArrive
	m.eng.AtRunner(at, s)
	return at
}

// arrive is the data frame reaching (or missing) the receiver.
func (s *arqSend) arrive() {
	m := s.m
	now := m.eng.Now()
	pf := m.mob.Position(int(s.from), now)
	pt := m.mob.Position(int(s.to), now)
	if !pf.Within(pt, m.par.Range) {
		m.counters.DroppedRange++
		if m.tap != nil {
			m.tap.FrameLost(now, int(s.from), int(s.to), telemetry.TraceOf(s.payload), "range")
		}
		s.retryOrFail()
		return
	}
	if m.src.Bernoulli(m.par.LossRate) {
		m.counters.DroppedLoss++
		if m.tap != nil {
			m.tap.FrameLost(now, int(s.from), int(s.to), telemetry.TraceOf(s.payload), "loss")
		}
		s.retryOrFail()
		return
	}
	if s.delivered {
		// A retransmission raced a lost ACK: absorb the duplicate
		// (the handler must not re-fire) but re-ACK so the sender can
		// stop. Duplicates stay off the receive taps — an adversary
		// correlating receptions should not double-count one frame.
		m.counters.Duplicates++
		m.counters.RxBytes += uint64(s.size)
		if m.tap != nil {
			m.tap.FrameDup(now, int(s.from), int(s.to), telemetry.TraceOf(s.payload))
		}
		s.sendAck()
		return
	}
	s.delivered = true
	m.counters.Delivered++
	m.counters.RxBytes += uint64(s.size)
	if m.tap != nil {
		m.tap.FrameRx(now, int(s.from), int(s.to), telemetry.TraceOf(s.payload), s.size)
	}
	m.notifyRecv(s.from, s.to, s.payload, s.size)
	if h := m.handlers[s.to]; h != nil {
		h(s.from, s.payload, s.size)
	}
	if m.par.Retries == 0 {
		s.resolve(SendDelivered)
		return
	}
	s.sendAck()
}

// sendAck transmits the receiver's ACK frame back to the sender. ACK frames
// are MAC-level control traffic: they are charged to the byte counters and
// the clock, but stay off the adversary taps (the taps model packet
// eavesdropping) and are not sunk by compromised receivers — the DoS
// attacker of Section 2.1 sinks the packets it should forward, not the
// MAC's own control responses, which would unmask it to its neighbors.
func (s *arqSend) sendAck() {
	m := s.m
	m.counters.AcksSent++
	m.counters.TxBytes += uint64(m.par.AckSize)
	m.txByNode[s.to]++
	if m.tap != nil {
		m.tap.AckTx(m.eng.Now(), int(s.to), int(s.from), telemetry.TraceOf(s.payload))
	}
	s.phase = arqPhaseAck
	m.eng.ScheduleRunner(m.txDelay(m.par.AckSize), s)
}

// ackArrive is the ACK frame reaching (or missing) the original sender.
func (s *arqSend) ackArrive() {
	m := s.m
	now := m.eng.Now()
	pt := m.mob.Position(int(s.to), now)
	pf := m.mob.Position(int(s.from), now)
	if !pt.Within(pf, m.par.Range) || m.src.Bernoulli(m.par.LossRate) {
		m.counters.AcksLost++
		if m.tap != nil {
			m.tap.AckLost(now, int(s.to), int(s.from), telemetry.TraceOf(s.payload))
		}
		s.retryOrFail()
		return
	}
	m.counters.RxBytes += uint64(m.par.AckSize)
	s.resolve(SendDelivered)
}

// retryOrFail schedules the next retransmission with exponential backoff,
// or resolves the send once the budget is spent.
func (s *arqSend) retryOrFail() {
	m := s.m
	if s.resolved {
		return
	}
	if s.attempts > m.par.Retries {
		if s.delivered {
			s.resolve(SendDelivered)
		} else {
			s.resolve(SendLost)
		}
		return
	}
	backoff := m.par.RetryBackoff * math.Pow(2, float64(s.attempts-1))
	s.phase = arqPhaseRetry
	m.eng.ScheduleRunner(backoff, s)
}

// Broadcast transmits payload to every node within Range of the sender at
// delivery time (one-hop local broadcast). Returns the delivery time.
func (m *Medium) Broadcast(from NodeID, payload any, size int) float64 {
	m.counters.BroadcastsSent++
	if m.compromised[from] {
		m.counters.DroppedCompromised++
		if m.tap != nil {
			m.tap.FrameLost(m.eng.Now(), int(from), int(BroadcastID), telemetry.TraceOf(payload), "compromised")
		}
		return m.eng.Now()
	}
	m.counters.TxBytes += uint64(size)
	m.txByNode[from]++
	m.notifySend(from, BroadcastID, payload, size)
	if m.tap != nil {
		m.tap.BroadcastTx(m.eng.Now(), int(from), telemetry.TraceOf(payload), size)
	}
	at := m.eng.Now() + m.txDelay(size)
	var b *bcastSend
	if n := len(m.bcastFree); n > 0 {
		b = m.bcastFree[n-1]
		m.bcastFree[n-1] = nil
		m.bcastFree = m.bcastFree[:n-1]
	} else {
		b = new(bcastSend)
	}
	*b = bcastSend{m: m, from: from, payload: payload, size: size}
	m.eng.AtRunner(at, b)
	return at
}

// bcastSend is one broadcast's scheduled delivery, pooled like arqSend. A
// broadcast has exactly one event (the delivery sweep), so the machine
// recycles itself when RunEvent finishes.
type bcastSend struct {
	m       *Medium
	from    NodeID
	payload any
	size    int
}

// sweepSlack widens the broadcast prefilter's reach relatively, far beyond
// the few ulp by which rounding can shorten a node's computed distance to
// the sender or lengthen its computed move since the beacon.
const sweepSlack = 1e-9

// RunEvent implements sim.Runner: the frame reaches every node in range,
// in ascending id order. A node's current position lies within
// MaxSpeed·(now − beacon time) of its position in the tick's beacon
// snapshot, so a node whose beacon is farther than Range plus that from
// the sender cannot be in range: the sweep counts it as out of range
// without asking the mobility model. A NaN reach (an unbounded speed over
// zero time) prunes nothing. Every other node takes the exact test, and
// skipping a Position query changes no trajectory, so receivers, their
// order, loss draws and counters are those of the unpruned sweep. The sweep
// stays serial even on large fields: forking its few ns of work per node
// costs more than it saves (see EXPERIMENTS.md, "Parallel sweeps").
func (b *bcastSend) RunEvent() {
	m := b.m
	from, payload, size := b.from, b.payload, b.size
	now := m.eng.Now()
	pf := m.mob.Position(int(from), now)
	beacons := m.beaconsNow()
	reach := (m.par.Range + m.mob.MaxSpeed()*(now-beacons.at)) * (1 + sweepSlack)
	reach2 := reach * reach
	for id := range m.handlers {
		if NodeID(id) == from {
			continue
		}
		if pf.Dist2(beacons.pos[id]) > reach2 || !pf.Within(m.mob.Position(id, now), m.par.Range) {
			// Out-of-range receivers of a broadcast are physics, not
			// loss: emitting one event per distant node would add
			// ~N lines per broadcast with no diagnostic value, so
			// the tap deliberately stays silent here.
			m.counters.DroppedRange++
			continue
		}
		if m.src.Bernoulli(m.par.LossRate) {
			m.counters.DroppedLoss++
			if m.tap != nil {
				m.tap.FrameLost(now, int(from), id, telemetry.TraceOf(payload), "loss")
			}
			continue
		}
		m.counters.Delivered++
		m.counters.RxBytes += uint64(size)
		if m.tap != nil {
			m.tap.FrameRx(now, int(from), id, telemetry.TraceOf(payload), size)
		}
		m.notifyRecv(from, NodeID(id), payload, size)
		if h := m.handlers[id]; h != nil {
			h(from, payload, size)
		}
	}
	b.payload = nil
	m.bcastFree = append(m.bcastFree, b)
}

// helloTick returns the index of the most recent hello beacon: the largest
// k such that the k-th beacon instant float64(k)*HelloInterval is <= now.
// A bare int(now/HelloInterval) is wrong at exact beacon instants — for
// awkward intervals like 0.3 s the division can round just below the tick
// index (e.g. fl(0.9)/fl(0.3) < 3), leaving the neighbor table one full
// tick stale right at the boundary — so the quotient is corrected against
// the same k*interval product the beacon timestamps are derived from.
func (m *Medium) helloTick() int {
	now := m.eng.Now()
	h := m.par.HelloInterval
	k := int(now / h)
	for float64(k+1)*h <= now {
		k++
	}
	for k > 0 && float64(k)*h > now {
		k--
	}
	return k
}

// Neighbor is one neighbor-table entry: the neighbor id and its position as
// advertised in its last hello beacon.
type Neighbor struct {
	ID  NodeID
	Pos geo.Point
}

// Neighbors returns id's neighbor table: all nodes within Range at the last
// hello tick, with their beaconed (possibly stale) positions. The querying
// node's own position is also taken at the beacon time, mirroring how real
// tables pair two beacon snapshots. Queries within one tick share a cached
// position snapshot and spatial grid.
func (m *Medium) Neighbors(id NodeID) []Neighbor {
	return m.NeighborsInto(id, nil)
}

// NeighborsInto is Neighbors with a caller-reusable destination: entries are
// appended to dst[:0] and the (possibly regrown) slice returned, so a caller
// that recycles the returned slice queries its neighbor table without
// allocating. The result is only valid until the caller's next NeighborsInto
// with the same destination.
func (m *Medium) NeighborsInto(id NodeID, dst []Neighbor) []Neighbor {
	beacons := m.beaconsNow()
	self := beacons.pos[id]
	out := dst[:0]
	// Scan the 3x3 cell block covering every candidate within one Range of
	// self; fixed cell order plus ascending ids within buckets keeps the
	// neighbor order deterministic.
	k := beacons.key(self)
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for _, other := range beacons.grid[[2]int{k[0] + dx, k[1] + dy}] {
				if other == id {
					continue
				}
				p := beacons.pos[other]
				if self.Within(p, m.par.Range) {
					out = append(out, Neighbor{ID: other, Pos: p})
				}
			}
		}
	}
	return out
}

// TruePosition returns a node's actual position at time t (for metrics and
// adversary models, which observe physics rather than beacons).
func (m *Medium) TruePosition(id NodeID, t float64) geo.Point {
	return m.mob.Position(int(id), t)
}

// nowGrid returns the spatial grid over true positions at the current
// instant, rebuilding it only when the clock has advanced since the last
// zone query. Zonecast and destination-zone scans within one event instant
// (a packet's zone partitioning fans out several queries at the same time)
// share one snapshot instead of re-scanning every node per call.
func (m *Medium) nowGrid() *posGrid {
	now := m.eng.Now()
	//lint:allowfloatcompare the cache key is the exact engine clock instant; any clock advance must invalidate
	if !m.nowValid || m.nowAt != now {
		m.nowPos.rebuild(m.mob, now, m.par.Range)
		m.nowAt = now
		m.nowValid = true
	}
	return &m.nowPos
}

// NodesWithin returns all node ids whose true current position lies in zone,
// in ascending id order.
func (m *Medium) NodesWithin(zone geo.Rect) []NodeID {
	return m.NodesWithinInto(zone, nil)
}

// NodesWithinInto is NodesWithin with a caller-reusable destination: ids are
// appended to dst[:0] and the (possibly regrown) slice returned. Only grid
// cells overlapping the zone are visited.
func (m *Medium) NodesWithinInto(zone geo.Rect, dst []NodeID) []NodeID {
	g := m.nowGrid()
	out := dst[:0]
	lo, hi := g.key(zone.Min), g.key(zone.Max)
	for cx := lo[0]; cx <= hi[0]; cx++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			for _, id := range g.grid[[2]int{cx, cy}] {
				if zone.Contains(g.pos[id]) {
					out = append(out, id)
				}
			}
		}
	}
	// Cells are visited column-major, so ids arrive grouped by cell; the
	// contract (and the previous O(N) scan) is ascending id order.
	slices.Sort(out)
	return out
}

// Engine exposes the simulation engine (protocols schedule timers on it).
func (m *Medium) Engine() *sim.Engine { return m.eng }

// Mobility exposes the underlying mobility model.
func (m *Medium) Mobility() mobility.Model { return m.mob }
