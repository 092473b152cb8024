// The live daemon core: one node's router stack over a real UDP socket.
//
// Concurrency model: a single processing loop goroutine owns ALL protocol
// and emulation state (neighbor table, ARQ windows, flows, telemetry tap),
// mirroring the simulator's single-threaded event engine, so the routing
// code needs no locks and stays deterministic given a message order. Beside
// it sits one socket pump:
//
//	readPump: socket -> rxq   (bounded; overflow drops + counts)
//	loop:     rxq/cmdq -> route/forward/deliver -> socket
//
// The loop writes its own datagrams: a loopback UDP write does not wait for
// the receiver, and should the send buffer ever fill, the write waits
// rather than drops. Coordinator calls (topology pushes, flow starts,
// report scrapes) enter as closures on cmdq and run on the loop goroutine.
// Timers (ARQ retransmissions, flow pacing) fire as closures posted back to
// cmdq. Receive buffers are pooled across the pump boundary so the receive
// path stays allocation-lean at steady state.
//
// A daemon's memory grows with the packets it deduplicates: each dedup set
// starts empty and holds at most 8 192 keys.
//
// The radio medium is emulated at the endpoints (DESIGN.md, "Live mode"):
// every frame carries the sender's position and a virtual-time accumulator.
// A receiver drops frames whose sender is out of emulated range and draws
// the medium's loss coin; a sender runs the medium's stop-and-wait ARQ,
// accumulating the medium's own charges — medium.Params.TxDelay per
// transmission, Params.Backoff per retry — into VTime. Measured latency is
// therefore timescale-free: wall-clock speed changes how fast the
// experiment runs, not what it measures.

package live

import (
	"fmt"
	"net"
	"sync"
	"time"

	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/medium"
	"alertmanet/internal/rng"
	"alertmanet/internal/telemetry"
)

// Config configures one daemon. The zero value is not runnable; derive it
// from a scenario with DaemonConfigFor.
type Config struct {
	// ID is the node's fleet-wide id (also its key-pair owner id).
	ID int
	// Protocol selects the router stack: "alert" runs the full
	// zone-bisection pipeline, "gpsr" direct geographic flows. NewDaemon
	// rejects any other value: the comparators do not run live.
	Protocol string
	// Field is the simulation field the fleet plays on.
	Field geo.Rect
	// Seed is the fleet-wide seed: every daemon derives its own streams
	// and the shared key suite from it, so a fleet is reproducible.
	Seed int64
	// Hmax is ALERT's partition depth H (core.Config.Depth).
	Hmax int
	// FixedAxisPartition mirrors core.Config.
	FixedAxisPartition bool
	// ChargeSessionSetup mirrors core.Config (the evaluation harness
	// runs with it off).
	ChargeSessionSetup bool
	// Medium is the emulated radio model (range, delays, loss, ARQ).
	Medium medium.Params
	// Timescale maps emulated seconds to real seconds for pacing (flow
	// intervals); 0 paces nothing and lets the fleet run flat out.
	// Latency measurements never depend on it (VTime carries the model).
	Timescale float64
}

const (
	// ackTimeout is the real-time wait for a link-layer ack before a
	// retransmission. It is a transport liveness bound, not part of the
	// emulated model, so it is real time, not emulated time.
	ackTimeout = 25 * time.Millisecond
	// queueDepth bounds the rx and cmd queues.
	queueDepth = 512
)

// Counters tallies one daemon's activity; Collect scrapes it.
type Counters struct {
	RxDatagrams  uint64
	TxDatagrams  uint64
	RxDropsFull  uint64
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
	spec   FlowSpec
	sent   int
	key    crypt.SymKey
	encKey []byte
	encLZS []byte
	timer  *time.Timer
}

// Daemon is one live node. Construct with NewDaemon, start with Start,
// stop with Close. The coordinator's methods (StartFlow, Collect) are safe
// from any goroutine: they post onto the loop.
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
	cmdq  chan func()
	stopc chan struct{}
	done  sync.WaitGroup
	pool  sync.Pool // receive buffers

	// Loop-owned state (no locks; only the loop goroutine touches it).
	self     geo.Point
	table    []medium.Neighbor      // the pushed neighbors, as gpsr.LegStep reads them
	addrs    map[int32]*net.UDPAddr // their transport addresses
	prevPos  geo.Point              // the frame in hand's sender stamp (topologyView)
	sendSeq  uint64
	pend     map[uint64]*pending
	seen     *dedup
	relayed  *dedup
	deliverd *dedup
	flows    map[uint32]*flowState
	dsess    map[uint32]core.DestSession // the destination's sessions by flow
	sends    []SendRecord
	delivs   []Delivery
	counts   Counters
	scratch  []medium.Neighbor // planarization buffer for gpsr.LegStep
	rxFrame  Frame             // pooled decode target
	encBuf   []byte            // pooled encode buffer

	tap     *telemetry.Tap
	closeMu sync.Mutex
	closed  bool
}

// NewDaemon binds a UDP socket on addr ("127.0.0.1:0" for tests) and
// builds the daemon. Start must be called before traffic flows.
func NewDaemon(cfg Config, addr string) (*Daemon, error) {
	if err := runsProtocol(cfg.Protocol); err != nil {
		return nil, err
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("live: listen %q: %w", addr, err)
	}
	d := newDaemon(cfg)
	d.conn = conn
	return d, nil
}

// newDaemon builds the daemon's state without a socket: keys, streams,
// queues and the loop-owned tables.
func newDaemon(cfg Config) *Daemon {
	// Every daemon derives the same suite from the fleet seed, so owner
	// ids resolve to the same key pairs fleet-wide — the predistributed
	// key material the paper's location service assumes.
	suite := crypt.NewFastSuite(rng.New(cfg.Seed))
	pub, priv := suite.GenerateKeyPair(cfg.ID)
	nodeRnd := rng.New(cfg.Seed).Split("live").SplitIndex("node", cfg.ID)
	d := &Daemon{
		cfg:      cfg,
		suite:    suite,
		pub:      pub,
		priv:     priv,
		pseud:    crypt.NewPseudonym(uint64(cfg.ID), 0, nodeRnd),
		costs:    crypt.DefaultCostModel(),
		rnd:      nodeRnd,
		rxq:      make(chan []byte, queueDepth),
		cmdq:     make(chan func(), queueDepth),
		stopc:    make(chan struct{}),
		addrs:    make(map[int32]*net.UDPAddr),
		pend:     make(map[uint64]*pending),
		seen:     newDedup(8192),
		relayed:  newDedup(8192),
		deliverd: newDedup(8192),
		flows:    make(map[uint32]*flowState),
		dsess:    make(map[uint32]core.DestSession),
	}
	d.pool.New = func() any { b := make([]byte, MaxFrame); return &b }
	return d
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

// Start launches the read pump and the processing loop.
func (d *Daemon) Start() {
	d.done.Add(2)
	go d.readPump()
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
	err := d.conn.Close() // unblocks readPump and any write in the loop
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

// call posts fn and waits for it to finish — the synchronous entry point
// of the coordinator's methods. With a non-nil hold the loop then runs
// nothing else until hold closes, so a coordinator can switch the whole
// fleet to a new snapshot while no daemon routes (Coordinator.push).
func (d *Daemon) call(fn func(), hold <-chan struct{}) error {
	ch := make(chan struct{})
	if !d.post(func() {
		fn()
		close(ch)
		if hold != nil {
			select {
			case <-hold:
			case <-d.stopc:
			}
		}
	}) {
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

// send writes an encoded datagram to addr. Runs on the loop, so frame (the
// loop's encode buffer) is free to reuse once it returns.
func (d *Daemon) send(addr *net.UDPAddr, frame []byte) {
	if _, err := d.conn.WriteToUDP(frame, addr); err == nil {
		d.counts.TxDatagrams++
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
	// Like the simulator, the tap logs a unicast's range loss and stays
	// silent for a broadcast copy's.
	if !d.self.Within(f.SrcPos, d.cfg.Medium.Range) {
		d.counts.DroppedRange++
		if d.tap != nil && f.To != None {
			d.tap.FrameLost(f.VTime, int(f.From), d.cfg.ID, d.trace(f), "range")
		}
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
	addr, ok := d.addrs[f.From]
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
	d.send(addr, b)
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
		// The leg ends here, at its last confirmed holder.
		d.endLeg(&p.frame, gpsr.DroppedLink)
		return
	}
	backoff := d.cfg.Medium.Backoff(p.attempts)
	sentAt := p.frame.VTime + backoff
	p.frame.VTime += backoff + d.cfg.Medium.TxDelay(int(p.frame.Size), d.rnd)
	p.attempts++
	d.counts.Retries++
	b, err := AppendFrame(d.encBuf[:0], &p.frame)
	if err != nil {
		delete(d.pend, sendID)
		return
	}
	d.encBuf = b
	if d.tap != nil {
		d.tap.FrameTx(sentAt, d.cfg.ID, int(p.frame.To),
			d.trace(&p.frame), int(p.frame.Size), p.attempts)
	}
	d.send(p.addr, b)
	p.timer = d.after(ackTimeout, func() { d.retry(sendID) })
}

// transmit puts a data frame on the emulated air toward neighbor to at
// addr: stamps link identity, position and the medium's transmission
// delay, encodes, sends, and arms the ARQ. Like the simulator's medium,
// the tap logs the transmission at its send time, before the delay.
func (d *Daemon) transmit(to int32, addr *net.UDPAddr, f *Frame) {
	d.sendSeq++
	f.Kind = KindData
	f.SendID = uint64(d.cfg.ID)<<32 | d.sendSeq
	f.From = int32(d.cfg.ID)
	f.SrcPos = d.self
	f.Flags &^= FlagNoAck
	f.To = to
	sentAt := f.VTime
	f.VTime += d.cfg.Medium.TxDelay(int(f.Size), d.rnd)
	b, err := AppendFrame(d.encBuf[:0], f)
	if err != nil {
		return
	}
	d.encBuf = b
	if d.tap != nil {
		d.tap.FrameTx(sentAt, d.cfg.ID, int(to), d.trace(f), int(f.Size), 1)
	}
	d.send(addr, b)
	if d.cfg.Medium.Retries <= 0 {
		return
	}
	id := f.SendID
	p := &pending{frame: cloneFrame(f), addr: addr, attempts: 1}
	p.timer = d.after(ackTimeout, func() { d.retry(id) })
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

// dedup is a set of at most capacity keys with FIFO eviction: large enough
// that in-window duplicates always hit, bounded so a long run cannot grow
// memory without limit. It grows with use: the ring takes keys by append
// until it holds capacity of them, and only then does each new key
// overwrite the oldest.
type dedup struct {
	set      map[uint64]struct{}
	ring     []uint64 // keys in insertion order, the oldest at next once full
	capacity int
	next     int
}

func newDedup(capacity int) *dedup {
	return &dedup{set: make(map[uint64]struct{}), capacity: capacity}
}

func (s *dedup) contains(k uint64) bool { _, ok := s.set[k]; return ok }

func (s *dedup) add(k uint64) {
	if _, ok := s.set[k]; ok {
		return
	}
	if len(s.ring) < s.capacity {
		s.ring = append(s.ring, k)
	} else {
		delete(s.set, s.ring[s.next])
		s.ring[s.next] = k
		s.next = (s.next + 1) % s.capacity
	}
	s.set[k] = struct{}{}
}

// pairKey packs (flow, seq) for flow-scoped dedup sets.
func pairKey(flow, seq uint32) uint64 { return uint64(flow)<<32 | uint64(seq) }
