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

// TxDelay draws one frame's time on air, as the medium and the live
// daemon both charge it: size*8/Bitrate plus an exponential contention
// delay of mean MACDelayMean drawn from src.
func (p *Params) TxDelay(size int, src *rng.Source) float64 {
	d := float64(size*8) / p.Bitrate
	if p.MACDelayMean > 0 {
		d += src.Exponential(p.MACDelayMean)
	}
	return d
}

// Backoff is the ARQ's wait before retransmitting a frame already sent
// attempts times: RetryBackoff doubled per earlier retransmission.
func (p *Params) Backoff(attempts int) float64 {
	return p.RetryBackoff * math.Pow(2, float64(attempts-1))
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
	// broadcast sweep decides most nodes from their beacon.
	beacons beaconCache
	// arqFree and bcastFree recycle send state machines; a steady-state
	// unicast or broadcast allocates nothing.
	arqFree   []*arqSend
	bcastFree []*bcastSend
	// sweep is the broadcast sweep's candidate list (bcastSend.RunEvent),
	// kept across sweeps.
	sweep []uint32
	// txByNode counts transmissions per node (load-balance metrics).
	txByNode []uint64
	// tap, when non-nil, observes every frame/ACK transmission, reception
	// and loss.
	tap *telemetry.Tap
}

// beaconCache is one hello tick's position snapshot bucketed into a dense
// grid whose cells are at least Range on a side. The tick is the integer
// beacon index (−1 before the first snapshot), so cache-hit detection is
// an exact integer compare rather than a float one; at is the tick's
// beacon instant.
//
// The grid is sized once per medium from the mobility model's field (see
// gridAxis). Cells are numbered column-major, col*rows + row, so the three
// cells of one column that a scan reads are one contiguous run of ids. A
// coordinate outside the field is clamped to its edge before bucketing, so
// an outside node lands in an edge cell, and since clamping never moves
// two coordinates apart, every pair within Range still lands in the same
// or adjacent cells. rebuild counting-sorts the ids by cell, visiting them
// in ascending order, so ids are ascending within each cell and any fixed
// cell-visit order yields a deterministic node order. Every array is
// allocated with the snapshot and refilled in place, so rebuilds allocate
// nothing.
//
// The cache also memoises the neighbor tables answered during the tick. A
// table depends only on the tick and the node, so a node's first query
// scans the grid and appends its neighbor ids to nbrs, and every later
// query in the tick copies them out. tables[id] locates node id's ids in
// nbrs and is valid only while its tick equals the cache's; rebuild
// truncates nbrs, and with it every table of the previous tick.
//
// now is the instant the cache last answered for (NaN before the first),
// and drift bounds how far any node can have moved from its beacon by
// then (see beaconsNow).
type beaconCache struct {
	tick int
	at   float64
	pos  []geo.Point
	// Grid geometry: the field's lower corner and upper corner, each
	// axis's cell side, and the column and row counts.
	lo, hi       geo.Point
	cellX, cellY float64
	cols, rows   int
	// cellOf is each node's cell, ids the node ids grouped by cell, and
	// ids[start[c]:start[c+1]] cell c's nodes.
	cellOf []int32
	ids    []int32
	start  []int32
	nbrs   []int32
	tables []nbrTable
	now    float64
	drift  float64
}

// nbrTable is one node's neighbor table in beaconCache.nbrs: the ids
// nbrs[lo:hi], scanned at the given tick (−1: never).
type nbrTable struct {
	tick   int
	lo, hi int32
}

// maxGridAxis caps the cells along one grid axis: a field more than this
// many ranges wide gets proportionally wider cells rather than a grid
// larger than its nodes need.
const maxGridAxis = 256

// gridAxis sizes one grid axis of extent w for radio range r: cells of
// side r, or wider ones when that would exceed maxGridAxis cells, or a
// single infinite cell when the extent or the range is not finite (or the
// extent is negative). The count is int(w/cell)+1, so a coordinate on the
// field's upper edge has a cell of its own.
func gridAxis(w, r float64) (cell float64, n int) {
	if q := w / r; q >= 0 && q <= maxGridAxis {
		return r, int(q) + 1
	}
	if c := w / maxGridAxis; c >= r && c < math.Inf(1) {
		return c, int(w/c) + 1
	}
	return math.Inf(1), 1
}

// axisIndex is the grid index along one axis of coordinate v: v clamped
// into [lo, hi], a NaN to lo, then counted in cells from lo.
func axisIndex(v, lo, hi, cell float64) int {
	if v > hi {
		v = hi
	}
	if k := (v - lo) / cell; k > 0 {
		return int(k)
	}
	return 0
}

func newBeaconCache(mob mobility.Model, rangeM float64) beaconCache {
	n := mob.N()
	f := mob.Field()
	b := beaconCache{
		pos:    make([]geo.Point, n),
		tables: make([]nbrTable, n),
		cellOf: make([]int32, n),
		ids:    make([]int32, n),
		tick:   -1,
		now:    math.NaN(),
		lo:     f.Min,
		hi:     f.Max,
	}
	b.cellX, b.cols = gridAxis(f.Width(), rangeM)
	b.cellY, b.rows = gridAxis(f.Height(), rangeM)
	b.start = make([]int32, b.cols*b.rows+1)
	for id := range b.tables {
		b.tables[id].tick = -1
	}
	return b
}

// cell returns the grid cell of position p.
func (b *beaconCache) cell(p geo.Point) int {
	return axisIndex(p.X, b.lo.X, b.hi.X, b.cellX)*b.rows + axisIndex(p.Y, b.lo.Y, b.hi.Y, b.cellY)
}

func (b *beaconCache) rebuild(mob mobility.Model, at float64) {
	b.nbrs = b.nbrs[:0]
	clear(b.start)
	for id := range b.pos {
		p := mob.Position(id, at)
		b.pos[id] = p
		c := b.cell(p)
		b.cellOf[id] = int32(c)
		b.start[c]++
	}
	// Running sums turn start[c] into the end of cell c; filling each cell
	// from its end with ids in descending order then leaves start[c] at
	// the cell's beginning and its ids ascending.
	sum := int32(0)
	for c, k := range b.start {
		sum += k
		b.start[c] = sum
	}
	for id := len(b.pos) - 1; id >= 0; id-- {
		c := b.cellOf[id]
		b.start[c]--
		b.ids[b.start[c]] = int32(id)
	}
}

// scan appends to dst the ids of every node within radius of id in the
// snapshot, band being that radius's geo.Band. It reads the 3x3 cell block
// covering every candidate within one cell side of id, column by column
// and each column's rows in one run; the fixed cell order plus ascending
// ids within cells keeps the order deterministic.
//
// No candidate takes a branch of its own: each is written at the end of
// dst, and the end advances past it by the 0 or 1 that geo.Sift computes
// from its squared distance against the band's bounds, unless it is id
// itself.
// The few candidates inside the band's rounding margin (or at a NaN
// distance) are kept and counted; only when there are any does a second,
// in-order pass over what this call appended keep exactly those the
// band's Within keeps.
func (b *beaconCache) scan(id NodeID, band geo.Band, dst []int32) []int32 {
	pos := b.pos
	self := pos[id]
	c := int(b.cellOf[id])
	col, row := c/b.rows, c%b.rows
	lo, hi := max(row-1, 0), min(row+1, b.rows-1)
	in2, out2 := band.Bounds()
	first, n, unsure := len(dst), len(dst), 0
	for x := max(col-1, 0); x <= min(col+1, b.cols-1); x++ {
		run := b.ids[b.start[x*b.rows+lo]:b.start[x*b.rows+hi+1]]
		dst = slices.Grow(dst[:n], len(run))[:n+len(run)]
		for _, other := range run {
			keep, in := geo.Sift(self.Dist2(pos[other]), in2, out2)
			dst[n] = other
			n += keep & b2i(other != int32(id))
			unsure += keep - in
		}
	}
	dst = dst[:n]
	if unsure == 0 {
		return dst
	}
	n = first
	for _, other := range dst[first:] {
		if band.Within(self, pos[other]) {
			dst[n] = other
			n++
		}
	}
	return dst[:n]
}

// b2i is 1 for true and 0 for false; the compiler sets it from the flags,
// without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// driftSlack widens every bound the snapshot decides by, relatively, far
// beyond the few ulp by which rounding can shorten a computed distance or
// lengthen a node's computed move since its beacon.
const driftSlack = 1e-9

// beaconsNow returns the current hello tick's snapshot, building it on the
// tick's first query, with drift set for the current instant: a node's
// position now lies within MaxSpeed·(now − beacon time) of its beacon, up
// to the few ulp of the field's coordinates a model may add
// (mobility.Model). An unbounded speed (+Inf) makes drift +Inf, or NaN at
// a beacon instant, and every bound built on it decides nothing. Queries
// at the instant the cache last answered for return at once.
func (m *Medium) beaconsNow() *beaconCache {
	if b := &m.beacons; m.eng.Now() == b.now { //lint:allowfloatcompare the clock's own value, stored unchanged: same instant, same tick and drift
		return b
	}
	return m.advanceBeacons()
}

// advanceBeacons moves the cache to the engine's current instant.
func (m *Medium) advanceBeacons() *beaconCache {
	b := &m.beacons
	now := m.eng.Now()
	if tick := m.helloTick(); b.tick != tick {
		b.tick = tick
		b.at = float64(tick) * m.par.HelloInterval
		b.rebuild(m.mob, b.at)
	}
	b.now = now
	b.drift = m.mob.MaxSpeed() * (now - b.at)
	return b
}

// New creates a medium over the given mobility model. Radio parameters
// (Range, Bitrate, HelloInterval) not above zero, NaN included, are an error.
func New(eng *sim.Engine, mob mobility.Model, par Params, src *rng.Source) (*Medium, error) {
	if !(par.Range > 0) || !(par.Bitrate > 0) || !(par.HelloInterval > 0) {
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
		beacons:  newBeaconCache(mob, par.Range),
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

// SetLossRate changes the random-loss probability mid-run. Only tests call
// it, to open or close a loss window. The new rate governs every frame that
// lands after the call, ACKs included; an ACK that a lossless channel
// settles as its data frame lands (see sendAck) counts as landing then.
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

// PositionNow returns a node's true position at the current simulation
// time, as physics and observers see it (routing reads BeaconPosition).
func (m *Medium) PositionNow(id NodeID) geo.Point {
	return m.mob.Position(int(id), m.eng.Now())
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
// (see UnicastSink) but without reporting the send's fate. Returns the
// scheduled first-attempt delivery time.
func (m *Medium) Unicast(from, to NodeID, payload any, size int) float64 {
	return m.UnicastSink(from, to, payload, size, nil)
}

// OutcomeSink receives a unicast send's terminal fate. Hot-path senders (the
// router's forward) implement it on the in-flight packet itself so
// reporting a hop's fate costs no closure allocation.
type OutcomeSink interface {
	SendResolved(out SendOutcome)
}

// UnicastSink transmits payload from one node to another and reports the
// send's terminal fate to sink (which may be nil). Delivery succeeds if the
// receiver is within Range when a data-frame transmission completes and the
// loss coin does not fire; with Params.Retries > 0 the receiver ACKs each
// data frame and the sender retransmits on silence, so a send only counts as
// lost after the whole retry budget fails. The sink fires exactly once, when
// the ARQ resolves: at ACK reception or retry exhaustion (Retries > 0), or
// at first-attempt resolution (Retries = 0). An ACK that cannot fail — a
// lossless channel, both ends in range at its arrival — is received as its
// data frame lands, so the sink fires then. The handler fires at most once
// per send — duplicate data receptions are absorbed by the ARQ. Returns the
// scheduled first-attempt delivery time.
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
// the sink reports the fate, and the next Unicast reuses it.
type arqSend struct {
	m        *Medium
	from, to NodeID
	payload  any
	size     int
	sink     OutcomeSink
	// phase selects the RunEvent body for the one event in flight.
	phase uint8
	// attempts counts data-frame transmissions performed (first = 1).
	attempts int
	// delivered is set once the data frame reaches the handler; later
	// receptions of the same send are duplicates and the worst remaining
	// outcome is SendDelivered.
	delivered bool
	// resolved guards the single sink report.
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
	if s.sink != nil {
		s.sink.SendResolved(out)
	}
	// Resolved means no scheduled event references this machine anymore;
	// recycle it. References are dropped so payloads can be collected.
	m := s.m
	s.payload = nil
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
	at := m.eng.Now() + m.par.TxDelay(s.size, m.src)
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
//
// On a lossless channel an ACK whose two ends lie within Range at its
// arrival instant cannot fail, so it is settled here, as its data frame
// lands, instead of by an event at that instant: the sender's sink fires
// now. Mobility models answer any query order, so asking for the arrival
// instant's positions early changes no trajectory. Every other ACK arrives
// by an event, which keeps a lossy channel's loss draw in event order.
func (s *arqSend) sendAck() {
	m := s.m
	m.counters.AcksSent++
	m.counters.TxBytes += uint64(m.par.AckSize)
	m.txByNode[s.to]++
	if m.tap != nil {
		m.tap.AckTx(m.eng.Now(), int(s.to), int(s.from), telemetry.TraceOf(s.payload))
	}
	delay := m.par.TxDelay(m.par.AckSize, m.src)
	if m.par.LossRate <= 0 {
		at := m.eng.Now() + delay
		if m.mob.Position(int(s.to), at).Within(m.mob.Position(int(s.from), at), m.par.Range) {
			s.ackReceived()
			return
		}
	}
	s.phase = arqPhaseAck
	m.eng.ScheduleRunner(delay, s)
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
	s.ackReceived()
}

// ackReceived is the sender hearing the ACK: the send is delivered.
func (s *arqSend) ackReceived() {
	s.m.counters.RxBytes += uint64(s.m.par.AckSize)
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
	s.phase = arqPhaseRetry
	m.eng.ScheduleRunner(m.par.Backoff(s.attempts), s)
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
	at := m.eng.Now() + m.par.TxDelay(size, m.src)
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

// RunEvent implements sim.Runner: the frame reaches every node in range,
// in ascending id order. A node's current position lies within the
// snapshot's drift of its beacon (beaconsNow), so the beacon alone decides
// most nodes: one whose beacon lies within
// Range·(1−driftSlack) − drift·(1+driftSlack) of the sender is in range and
// receives without a Position query, and one whose beacon lies farther
// than (Range + drift)·(1+driftSlack) is out of range. The slack on Range
// also covers the models' few ulp of the field's coordinates on any field
// less than 10^8 ranges across. Only the nodes between the two radii take
// the exact Position + Within test. A radius that is not a number, or
// outside the [2^-500, 2^500] where its square is exact, decides nothing;
// an unbounded speed makes both radii so. Skipping a Position query
// changes no trajectory, so receivers, their order, loss draws and
// counters are those of the exact sweep.
//
// The sweep runs in two passes. The first sifts every node but the sender
// by its beacon, with no branch per node, into the medium's sweep list:
// ids in ascending order, each marked when it is surely in range, the ones
// surely out left off. The second runs the receiver body over that list
// alone: the exact test for the unmarked, then the loss draw, counters,
// taps and handler. A handler's Broadcast only schedules, so no sweep runs
// inside another and one list serves them all. The sweep stays serial even
// on large fields: forking its few ns of work per node costs more than it
// saves (see EXPERIMENTS.md, "Parallel sweeps").
func (b *bcastSend) RunEvent() {
	m := b.m
	from, payload, size := b.from, b.payload, b.size
	now := m.eng.Now()
	pf := m.mob.Position(int(from), now)
	beacons := m.beaconsNow()
	in2, out2 := -1.0, math.Inf(1)
	if r := m.par.Range*(1-driftSlack) - beacons.drift*(1+driftSlack); r >= 0x1p-500 && r <= 0x1p500 {
		in2 = r * r
	}
	if r := (m.par.Range + beacons.drift) * (1 + driftSlack); r >= 0x1p-500 && r <= 0x1p500 {
		out2 = r * r
	}
	list := slices.Grow(m.sweep[:0], len(beacons.pos))[:len(beacons.pos)]
	n := 0
	for id, q := range beacons.pos {
		keep, in := geo.Sift(pf.Dist2(q), in2, out2)
		list[n] = uint32(id)<<1 | uint32(in)
		n += keep & b2i(NodeID(id) != from)
	}
	m.sweep = list
	// Out-of-range receivers of a broadcast are physics, not loss:
	// emitting one event per distant node would add ~N lines per broadcast
	// with no diagnostic value, so the tap deliberately stays silent on
	// them.
	m.counters.DroppedRange += uint64(len(list) - 1 - n)
	for _, c := range list[:n] {
		id := int(c >> 1)
		if c&1 == 0 && !pf.Within(m.mob.Position(id, now), m.par.Range) {
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
// position snapshot and spatial grid, and a node's repeated queries within
// one tick share its table.
func (m *Medium) Neighbors(id NodeID) []Neighbor {
	return m.NeighborsInto(id, nil)
}

// NeighborsInto is Neighbors with a caller-reusable destination: entries are
// appended to dst[:0] and the (possibly regrown) slice returned, so a caller
// that recycles the returned slice queries its neighbor table without
// allocating. The result is only valid until the caller's next NeighborsInto
// with the same destination.
func (m *Medium) NeighborsInto(id NodeID, dst []Neighbor) []Neighbor {
	b := m.beaconsNow()
	t := &b.tables[id]
	if t.tick != b.tick {
		lo := len(b.nbrs)
		b.nbrs = b.scan(id, geo.BandOf(m.par.Range), b.nbrs)
		*t = nbrTable{tick: b.tick, lo: int32(lo), hi: int32(len(b.nbrs))}
	}
	out := dst[:0]
	for _, other := range b.nbrs[t.lo:t.hi] {
		out = append(out, Neighbor{ID: NodeID(other), Pos: b.pos[other]})
	}
	return out
}

// TruePosition returns a node's actual position at time t (for metrics and
// adversary models, which observe physics rather than beacons).
func (m *Medium) TruePosition(id NodeID, t float64) geo.Point {
	return m.mob.Position(int(id), t)
}

// BeaconPosition returns node id's position in the hello snapshot its
// neighbors' tables hold. Every routing decision reads positions here, so
// greedy forwarding compares positions taken at one instant.
func (m *Medium) BeaconPosition(id NodeID) geo.Point {
	return m.beaconsNow().pos[id]
}

// BeaconDrift bounds how far any node can have moved from its
// BeaconPosition by now: +Inf or NaN when the mobility model's speed is
// unbounded.
func (m *Medium) BeaconDrift() float64 {
	return m.beaconsNow().drift
}

// NodesWithinInto appends to dst[:0] the ids of every node whose beacon
// position lies in zone, in ascending id order, and returns the (possibly
// regrown) slice: the zone's members as routing sees them. It reads only
// the grid cells from the one zone.Min falls in to the one zone.Max falls
// in: a coordinate's cell index never decreases as the coordinate grows,
// so every node inside the zone lies in one of them. A zone with Min above
// Max on an axis, or a NaN bound, contains no node, whatever cells it
// reads. Ids ascend within each cell, not across cells, so the few hits
// are sorted.
func (m *Medium) NodesWithinInto(zone geo.Rect, dst []NodeID) []NodeID {
	b := m.beaconsNow()
	out := dst[:0]
	lo, hi := b.cell(zone.Min), b.cell(zone.Max)
	row0, row1 := lo%b.rows, hi%b.rows
	if row0 > row1 {
		return out
	}
	for x := lo / b.rows; x <= hi/b.rows; x++ {
		for _, id := range b.ids[b.start[x*b.rows+row0]:b.start[x*b.rows+row1+1]] {
			if zone.Contains(b.pos[id]) {
				out = append(out, NodeID(id))
			}
		}
	}
	slices.Sort(out)
	return out
}

// Mobility exposes the underlying mobility model.
func (m *Medium) Mobility() mobility.Model { return m.mob }
