// The alertd daemon core: one node's router stack over a real UDP socket.
//
// Concurrency model: a single processing loop goroutine owns ALL protocol
// and emulation state (neighbor table, ARQ windows, flows, telemetry tap),
// mirroring the simulator's single-threaded event engine, so the routing
// code needs no locks and stays deterministic given a message order. Around
// it sit the socket pumps:
//
//	readPump:  socket -> rxq   (bounded; overflow drops + counts)
//	loop:      rxq/cmdq -> route/forward/deliver -> txq
//	writePump: txq -> socket   (bounded; overflow drops + counts)
//
// Control-plane mutations (topology pushes, flow starts, report scrapes)
// enter as closures on cmdq and run on the loop goroutine. Timers
// (ARQ retransmissions, flow pacing) fire as closures posted back to cmdq.
// Datagram buffers are pooled across the pump boundary so the receive path
// stays allocation-lean at steady state (the PR 6 discipline, adapted to a
// concurrent process).
//
// The radio medium is emulated at the endpoints (DESIGN.md, "Live mode"):
// every frame carries the sender's position and a virtual-time accumulator.
// A receiver drops frames whose sender is out of emulated range and draws
// the medium's loss coin; a sender runs the medium's stop-and-wait ARQ with
// its exact retry/backoff schedule, accumulating the emulated delay model
// (size*8/Bitrate + Exp(MACDelayMean) per transmission, plus backoffs) into
// VTime. Measured latency is therefore timescale-free: wall-clock speed
// changes how fast the experiment runs, not what it measures.

package live

import (
	"fmt"
	"net"
	"sync"
	"time"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/rng"
	"alertmanet/internal/telemetry"
)

// Config configures one daemon. The zero value is not runnable; start from
// DefaultDaemonConfig.
type Config struct {
	// ID is the node's fleet-wide id (also its key-pair owner id).
	ID int
	// Protocol selects the router stack: "alert", "gpsr", "ao2p",
	// "alarm" or "zap". ALERT runs the full zone-bisection pipeline; the
	// comparators route direct geographic flows (see DESIGN.md for what
	// live-mode parity covers per protocol).
	Protocol string
	// Field is the simulation field the fleet plays on.
	Field geo.Rect
	// Seed is the fleet-wide seed: every daemon derives its own streams
	// and the shared key suite from it, so a fleet is reproducible.
	Seed int64
	// Hmax is ALERT's partition depth H.
	Hmax int
	// FixedAxisPartition mirrors core.Config.
	FixedAxisPartition bool
	// PacketSize is the emulated on-air size of data packets.
	PacketSize int
	// HopBudget is the TTL for direct (gpsr-family) flows; LegHopBudget
	// the TTL per ALERT leg.
	HopBudget    int
	LegHopBudget int
	// ChargeSessionSetup mirrors core.Config (the evaluation harness
	// runs with it off).
	ChargeSessionSetup bool
	// Medium is the emulated radio model (range, delays, loss, ARQ).
	Medium medium.Params
	// Timescale maps emulated seconds to real seconds for pacing (flow
	// intervals); 0 paces nothing and lets the fleet run flat out.
	// Latency measurements never depend on it (VTime carries the model).
	Timescale float64
	// AckTimeout is the real-time wait for a link-layer ack before a
	// retransmission. It is a transport liveness bound, not part of the
	// emulated model, so it is real time, not emulated time.
	AckTimeout time.Duration
	// QueueDepth bounds the rx/tx/cmd queues.
	QueueDepth int
}

// DefaultDaemonConfig returns a runnable config for node id matching the
// simulator's paper defaults.
func DefaultDaemonConfig(id int, field geo.Rect, seed int64) Config {
	return Config{
		ID:           id,
		Protocol:     "gpsr",
		Field:        field,
		Seed:         seed,
		Hmax:         5,
		PacketSize:   512,
		HopBudget:    10,
		LegHopBudget: 10,
		Medium:       medium.DefaultParams(),
		Timescale:    0,
		AckTimeout:   25 * time.Millisecond,
		QueueDepth:   512,
	}
}

// Counters tallies one daemon's activity; scraped over the control channel.
type Counters struct {
	RxDatagrams  uint64
	TxDatagrams  uint64
	RxDropsFull  uint64
	TxDropsFull  uint64
	DecodeErrors uint64

	DroppedRange uint64
	DroppedLoss  uint64
	Dups         uint64
	AcksTx       uint64
	AcksRx       uint64
	AcksLost     uint64
	Retries      uint64
	SendsLost    uint64

	Forwarded        uint64
	LegArrived       uint64
	LegDropTTL       uint64
	LegDropDeadEnd   uint64
	LegDropLink      uint64
	PerimeterEntries uint64
	ZoneBroadcasts   uint64
	ZoneRelays       uint64

	Sent      uint64
	Delivered uint64
}

// Neighbor is one steered neighbor-table entry: the coordinator tells each
// daemon who is in emulated radio range and where (the hello-beacon
// equivalent), plus the real transport address.
type Neighbor struct {
	ID   int32
	Pos  geo.Point
	Addr *net.UDPAddr
}

// SendRecord is one source-side send, the denominator of delivery rate.
type SendRecord struct {
	Flow uint32  `json:"flow"`
	Seq  uint32  `json:"seq"`
	Dst  int     `json:"dst"`
	T    float64 `json:"t"` // emulated send time (flow schedule position)
}

// Delivery is one destination-side delivery: VTime is the packet's
// end-to-end emulated latency, Path the node sequence that held it.
type Delivery struct {
	Flow  uint32  `json:"flow"`
	Seq   uint32  `json:"seq"`
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	VTime float64 `json:"vtime"`
	Hops  int     `json:"hops"`
	Path  []int   `json:"path"`
}

// pending is one in-flight ARQ send awaiting its ack.
type pending struct {
	frame    Frame // owned copy (Path/Env storage private to this struct)
	addr     *net.UDPAddr
	attempts int
	timer    *time.Timer
}

// flowState is one source-side flow (live's session equivalent).
type flowState struct {
	spec    FlowSpec
	sent    int
	key     crypt.SymKey
	encKey  []byte
	encLZS  []byte
	timer   *time.Timer
	stopped bool
}

// destState is destination-side per-source-flow session state.
type destState struct {
	established bool
	key         crypt.SymKey
}

// outBuf is one encoded datagram headed for the socket.
type outBuf struct {
	addr *net.UDPAddr
	buf  []byte
}

// Daemon is one live node. Construct with NewDaemon, start with Start,
// stop with Close. All exported control methods (Topology, StartFlow,
// Report, ...) are safe from any goroutine: they post onto the loop.
type Daemon struct {
	cfg   Config
	conn  *net.UDPConn
	suite *crypt.FastSuite
	pub   crypt.PubKey
	priv  crypt.PrivKey
	pseud crypt.Pseudonym
	costs crypt.CostModel
	rnd   *rng.Source

	rxq   chan []byte
	txq   chan outBuf
	cmdq  chan func()
	stopc chan struct{}
	done  sync.WaitGroup
	pool  sync.Pool // datagram buffers

	// Loop-owned state (no locks; only the loop goroutine touches it).
	now      float64 // emulated fleet time, steered by topology pushes
	self     geo.Point
	nbrs     []Neighbor
	nbrIdx   map[int32]int
	sendSeq  uint64
	pend     map[uint64]*pending
	seen     *dedup
	relayed  *dedup
	deliverd *dedup
	flows    map[uint32]*flowState
	dsess    map[uint32]*destState
	sends    []SendRecord
	delivs   []Delivery
	counts   Counters
	scratch  []medium.Neighbor // planarization buffer for gpsr.Step
	nbrBuf   []medium.Neighbor // neighbor-table view for gpsr.Step
	rxFrame  Frame             // pooled decode target
	encBuf   []byte            // pooled encode buffer

	tap     *telemetry.Tap
	closeMu sync.Mutex
	closed  bool
}

// NewDaemon binds a UDP socket on addr ("127.0.0.1:0" for tests) and
// builds the daemon. Start must be called before traffic flows.
func NewDaemon(cfg Config, addr string) (*Daemon, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 512
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 25 * time.Millisecond
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("live: listen %q: %w", addr, err)
	}
	// Every daemon derives the same suite from the fleet seed, so owner
	// ids resolve to the same key pairs fleet-wide — the predistributed
	// key material the paper's location service assumes.
	suite := crypt.NewFastSuite(rng.New(cfg.Seed))
	pub, priv := suite.GenerateKeyPair(cfg.ID)
	nodeRnd := rng.New(cfg.Seed).Split("live").SplitIndex("node", cfg.ID)
	d := &Daemon{
		cfg:      cfg,
		conn:     conn,
		suite:    suite,
		pub:      pub,
		priv:     priv,
		pseud:    crypt.NewPseudonym(uint64(cfg.ID), 0, nodeRnd),
		costs:    crypt.DefaultCostModel(),
		rnd:      nodeRnd,
		rxq:      make(chan []byte, cfg.QueueDepth),
		txq:      make(chan outBuf, cfg.QueueDepth),
		cmdq:     make(chan func(), cfg.QueueDepth),
		stopc:    make(chan struct{}),
		nbrIdx:   make(map[int32]int),
		pend:     make(map[uint64]*pending),
		seen:     newDedup(8192),
		relayed:  newDedup(8192),
		deliverd: newDedup(8192),
		flows:    make(map[uint32]*flowState),
		dsess:    make(map[uint32]*destState),
	}
	d.pool.New = func() any { b := make([]byte, MaxFrame); return &b }
	return d, nil
}

// SetTap attaches a telemetry tap. Call before Start; the tap is owned by
// the loop goroutine afterwards. A nil tap (the default) disables
// telemetry entirely.
func (d *Daemon) SetTap(t *telemetry.Tap) { d.tap = t }

// ID returns the daemon's node id.
func (d *Daemon) ID() int { return d.cfg.ID }

// Pseudonym returns the daemon's stable pseudonym (what the coordinator's
// location service hands to sources).
func (d *Daemon) Pseudonym() crypt.Pseudonym { return d.pseud }

// UDPAddr returns the bound data-plane address.
func (d *Daemon) UDPAddr() *net.UDPAddr { return d.conn.LocalAddr().(*net.UDPAddr) }

// Start launches the pumps and the processing loop.
func (d *Daemon) Start() {
	d.done.Add(3)
	go d.readPump()
	go d.writePump()
	go d.loop()
}

// Close stops the daemon and waits for its goroutines. Idempotent.
func (d *Daemon) Close() error {
	d.closeMu.Lock()
	if d.closed {
		d.closeMu.Unlock()
		return nil
	}
	d.closed = true
	close(d.stopc)
	d.closeMu.Unlock()
	err := d.conn.Close() // unblocks readPump
	d.done.Wait()
	if d.tap != nil {
		// The loop has exited; flushing here is teardown, not an emit.
		_ = d.tap.Flush()
	}
	return err
}

// post runs fn on the loop goroutine; it returns false if the daemon is
// shutting down.
func (d *Daemon) post(fn func()) bool {
	select {
	case d.cmdq <- fn:
		return true
	case <-d.stopc:
		return false
	}
}

// call posts fn and waits for it to finish — the synchronous control-plane
// entry point.
func (d *Daemon) call(fn func()) error {
	ch := make(chan struct{})
	if !d.post(func() { fn(); close(ch) }) {
		return fmt.Errorf("live: daemon %d is shut down", d.cfg.ID)
	}
	select {
	case <-ch:
		return nil
	case <-d.stopc:
		return fmt.Errorf("live: daemon %d shut down mid-call", d.cfg.ID)
	}
}

// real converts an emulated delay to a wall-clock pacing duration.
func (d *Daemon) real(sec float64) time.Duration {
	if d.cfg.Timescale <= 0 || sec <= 0 {
		return 0
	}
	return time.Duration(sec * d.cfg.Timescale * float64(time.Second))
}

// after arms a timer that posts fn onto the loop when it fires.
func (d *Daemon) after(dur time.Duration, fn func()) *time.Timer {
	return time.AfterFunc(dur, func() { d.post(fn) })
}

func (d *Daemon) readPump() {
	defer d.done.Done()
	for {
		bp := d.pool.Get().(*[]byte)
		buf := (*bp)[:MaxFrame]
		n, _, err := d.conn.ReadFromUDP(buf)
		if err != nil {
			d.pool.Put(bp)
			select {
			case <-d.stopc:
				return
			default:
				// Transient socket error; keep serving.
				continue
			}
		}
		select {
		case d.rxq <- buf[:n]:
		default:
			// Bounded queue full: drop on the floor, like a NIC ring.
			// The sender's ARQ recovers or charges the loss.
			d.pool.Put(bp)
			d.post(func() { d.counts.RxDropsFull++ })
		}
	}
}

func (d *Daemon) writePump() {
	defer d.done.Done()
	for {
		select {
		case ob := <-d.txq:
			_, err := d.conn.WriteToUDP(ob.buf, ob.addr)
			full := ob.buf[:MaxFrame]
			d.pool.Put(&full)
			if err == nil {
				d.post(func() { d.counts.TxDatagrams++ })
			}
		case <-d.stopc:
			return
		}
	}
}

// enqueue hands an encoded datagram to the write pump; overflow drops.
func (d *Daemon) enqueue(addr *net.UDPAddr, frame []byte) {
	bp := d.pool.Get().(*[]byte)
	buf := append((*bp)[:0], frame...)
	select {
	case d.txq <- outBuf{addr: addr, buf: buf}:
	default:
		d.pool.Put(bp)
		d.counts.TxDropsFull++
	}
}

func (d *Daemon) loop() {
	defer d.done.Done()
	for {
		select {
		case buf := <-d.rxq:
			d.handleDatagram(buf)
			full := buf[:MaxFrame]
			d.pool.Put(&full)
		case fn := <-d.cmdq:
			fn()
		case <-d.stopc:
			d.drainTimers()
			return
		}
	}
}

// drainTimers stops outstanding wall-clock timers at shutdown.
func (d *Daemon) drainTimers() {
	for _, p := range d.pend {
		p.timer.Stop()
	}
	for _, fl := range d.flows {
		if fl.timer != nil {
			fl.timer.Stop()
		}
	}
}

// handleDatagram is the receive path: decode, emulated physics, ARQ, then
// the router (router.go).
func (d *Daemon) handleDatagram(buf []byte) {
	d.counts.RxDatagrams++
	f := &d.rxFrame
	if err := DecodeFrame(buf, f); err != nil {
		d.counts.DecodeErrors++
		return
	}
	if f.Kind == KindAck {
		d.handleAck(f)
		return
	}
	// Emulated physics: the frame carries the sender's position; a
	// receiver beyond the emulated radio range never saw it. Silence —
	// not a NAK — so the sender's ARQ retries and eventually charges the
	// loss, exactly like the simulator's arqSend. A claimed position that
	// is not a number is within no range, so such a frame is dropped too.
	if !d.self.Within(f.SrcPos, d.cfg.Medium.Range) {
		d.counts.DroppedRange++
		return
	}
	if d.rnd.Bernoulli(d.cfg.Medium.LossRate) {
		d.counts.DroppedLoss++
		if d.tap != nil {
			d.tap.FrameLost(f.VTime, int(f.From), d.cfg.ID, d.trace(f), "loss")
		}
		return
	}
	if f.Flags&FlagNoAck == 0 {
		// Stop-and-wait ARQ: ack first, then duplicate absorption (a
		// retransmission whose predecessor we already processed still
		// deserves an ack — its ack may have been the casualty).
		d.sendAck(f)
		if d.seen.contains(f.SendID) {
			d.counts.Dups++
			if d.tap != nil {
				d.tap.FrameDup(f.VTime, int(f.From), d.cfg.ID, d.trace(f))
			}
			return
		}
		d.seen.add(f.SendID)
	}
	if d.tap != nil {
		d.tap.FrameRx(f.VTime, int(f.From), d.cfg.ID, d.trace(f), int(f.Size))
	}
	d.handleFrame(f)
}

// trace is the telemetry trace id for a frame: flow-scoped so tlmgrep can
// follow one packet across daemon logs.
func (d *Daemon) trace(f *Frame) int { return int(f.Flow)<<20 | int(f.Seq) }

func (d *Daemon) sendAck(f *Frame) {
	nb, ok := d.neighbor(f.From)
	if !ok {
		// Sender not in our steered table (asymmetric staleness): ack
		// to the datagram's source address is impossible without the
		// table — drop; the sender retries.
		return
	}
	ack := Frame{Kind: KindAck, SendID: f.SendID, From: int32(d.cfg.ID), To: f.From}
	b, err := AppendFrame(d.encBuf[:0], &ack)
	if err != nil {
		return
	}
	d.encBuf = b
	d.counts.AcksTx++
	if d.tap != nil {
		d.tap.AckTx(f.VTime, d.cfg.ID, int(f.From), d.trace(f))
	}
	d.enqueue(nb.Addr, b)
}

func (d *Daemon) handleAck(f *Frame) {
	p, ok := d.pend[f.SendID]
	if !ok {
		return // late ack after give-up, or duplicate ack
	}
	// The ack frame itself crosses the emulated channel: it can be lost
	// too, in which case the sender retransmits and the receiver's
	// duplicate absorption re-acks.
	if d.rnd.Bernoulli(d.cfg.Medium.LossRate) {
		d.counts.AcksLost++
		if d.tap != nil {
			d.tap.AckLost(p.frame.VTime, int(f.From), d.cfg.ID, d.trace(&p.frame))
		}
		return
	}
	d.counts.AcksRx++
	p.timer.Stop()
	delete(d.pend, f.SendID)
}

// retry is the ARQ timeout path: retransmit with the emulated backoff and
// a fresh transmission delay, or give up and charge the loss.
func (d *Daemon) retry(sendID uint64) {
	p, ok := d.pend[sendID]
	if !ok {
		return
	}
	if p.attempts > d.cfg.Medium.Retries {
		delete(d.pend, sendID)
		d.counts.SendsLost++
		d.counts.LegDropLink++
		if d.tap != nil {
			d.tap.FrameLost(p.frame.VTime, d.cfg.ID, int(p.frame.To),
				d.trace(&p.frame), "retries-exhausted")
		}
		return
	}
	// Mirror medium.retryOrFail: attempt k waits RetryBackoff * 2^(k-1),
	// then retransmits with a freshly drawn transmission delay.
	backoff := d.cfg.Medium.RetryBackoff
	for i := 1; i < p.attempts; i++ {
		backoff *= 2
	}
	p.frame.VTime += backoff + d.txDelay(int(p.frame.Size))
	p.attempts++
	d.counts.Retries++
	b, err := AppendFrame(d.encBuf[:0], &p.frame)
	if err != nil {
		delete(d.pend, sendID)
		return
	}
	d.encBuf = b
	if d.tap != nil {
		d.tap.FrameTx(p.frame.VTime, d.cfg.ID, int(p.frame.To),
			d.trace(&p.frame), int(p.frame.Size), p.attempts)
	}
	d.enqueue(p.addr, b)
	p.timer = d.after(d.cfg.AckTimeout, func() { d.retry(sendID) })
}

// txDelay draws one emulated transmission delay, the medium's model.
func (d *Daemon) txDelay(size int) float64 {
	delay := float64(size*8) / d.cfg.Medium.Bitrate
	if d.cfg.Medium.MACDelayMean > 0 {
		delay += d.rnd.Exponential(d.cfg.Medium.MACDelayMean)
	}
	return delay
}

// transmit puts a data frame on the emulated air toward a neighbor: stamps
// link identity, position and the emulated transmission delay, encodes,
// enqueues, and (unless noAck) arms the ARQ.
func (d *Daemon) transmit(nb Neighbor, f *Frame, noAck bool) {
	d.sendSeq++
	f.Kind = KindData
	f.SendID = uint64(d.cfg.ID)<<32 | d.sendSeq
	f.From = int32(d.cfg.ID)
	f.SrcPos = d.self
	if noAck {
		f.Flags |= FlagNoAck
		f.To = None
	} else {
		f.Flags &^= FlagNoAck
		f.To = nb.ID
	}
	f.VTime += d.txDelay(int(f.Size))
	b, err := AppendFrame(d.encBuf[:0], f)
	if err != nil {
		return
	}
	d.encBuf = b
	if d.tap != nil {
		d.tap.FrameTx(f.VTime, d.cfg.ID, int(nb.ID), d.trace(f), int(f.Size), 1)
	}
	d.enqueue(nb.Addr, b)
	if noAck || d.cfg.Medium.Retries <= 0 {
		return
	}
	id := f.SendID
	p := &pending{frame: cloneFrame(f), addr: nb.Addr, attempts: 1}
	p.timer = d.after(d.cfg.AckTimeout, func() { d.retry(id) })
	d.pend[id] = p
}

// cloneFrame deep-copies a frame so the ARQ window owns its storage (the
// loop's scratch frame is reused per datagram).
func cloneFrame(f *Frame) Frame {
	c := *f
	c.Path = append([]int32(nil), f.Path...)
	if f.Env != nil {
		e := *f.Env
		e.EncLZS = append([]byte(nil), f.Env.EncLZS...)
		e.EncSymKey = append([]byte(nil), f.Env.EncSymKey...)
		e.EncTTL = append([]byte(nil), f.Env.EncTTL...)
		e.EncBitmap = append([]byte(nil), f.Env.EncBitmap...)
		e.Payload = append([]byte(nil), f.Env.Payload...)
		c.Env = &e
	}
	return c
}

func (d *Daemon) neighbor(id int32) (Neighbor, bool) {
	i, ok := d.nbrIdx[id]
	if !ok {
		return Neighbor{}, false
	}
	return d.nbrs[i], true
}

// dedup is a fixed-capacity set with FIFO eviction: large enough that
// in-window duplicates always hit, bounded so a long run cannot grow
// memory without limit.
type dedup struct {
	set  map[uint64]struct{}
	ring []uint64
	next int
}

func newDedup(capacity int) *dedup {
	return &dedup{set: make(map[uint64]struct{}, capacity), ring: make([]uint64, capacity)}
}

func (s *dedup) contains(k uint64) bool { _, ok := s.set[k]; return ok }

func (s *dedup) add(k uint64) {
	if _, ok := s.set[k]; ok {
		return
	}
	old := s.ring[s.next]
	if _, ok := s.set[old]; ok && old != 0 {
		delete(s.set, old)
	}
	s.ring[s.next] = k
	s.next = (s.next + 1) % len(s.ring)
	s.set[k] = struct{}{}
}

// pairKey packs (flow, seq) for flow-scoped dedup sets.
func pairKey(flow, seq uint32) uint64 { return uint64(flow)<<32 | uint64(seq) }
