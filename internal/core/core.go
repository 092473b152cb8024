// Package core implements ALERT, the paper's contribution: an anonymous
// location-based routing protocol that hierarchically partitions the
// network field to pick random forwarders, k-anonymity-broadcasts in the
// destination zone, hides sources behind "notify and go" cover traffic, and
// counters intersection attacks with a two-step partial multicast
// (Shen & Zhao, Sections 2-3).
package core

import (
	"fmt"
	"math"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/metrics"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
	"alertmanet/internal/telemetry"
)

// Config tunes the protocol. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// K is the destination k-anonymity parameter: Z_D is sized to hold
	// about K nodes.
	K int
	// H overrides the partition count; 0 derives H = log2(N/K)
	// (Section 2.4).
	H int

	// NotifyAndGo enables the source-anonymity mechanism of Section 2.6.
	NotifyAndGo bool
	// NotifyT and NotifyT0 bound the random back-off window [t, t+t0]
	// both the source and its covering neighbors draw from.
	NotifyT, NotifyT0 float64

	// FixedAxisPartition disables the alternating horizontal/vertical
	// cut order and always cuts the same axis. ALERT alternates "to
	// ensure that a pkt approaches D in each step" (Section 2.3); this
	// knob exists to measure that design choice (ablation benchmark).
	FixedAxisPartition bool

	// IntersectionGuard enables the two-step m-of-k multicast with an
	// encrypted bitmap (Section 3.3).
	IntersectionGuard bool
	// HoldRelease bounds how long a holder keeps a step-one packet
	// before re-broadcasting even if no follow-up packet arrives.
	HoldRelease float64

	// Confirm enables destination confirmations and source retransmission
	// (Section 2.3: resend when no confirmation arrives in time).
	Confirm bool

	// ChargeSessionSetup includes the session's one-time public-key
	// operations (encrypting K_s and L_{Z_S} at S, decrypting them at D)
	// in the first packet's latency. The paper's latency metric charges
	// only the per-packet symmetric cryptography — session establishment
	// happens in the RREQ handshake outside the timed path — so the
	// evaluation harness disables this; it defaults on for honesty in
	// standalone use.
	ChargeSessionSetup bool

	// NAKs enables the destination's gap-triggered negative
	// acknowledgements (Section 2.5: geographic-routing approaches use
	// NAKs rather than ACKs to reduce traffic).
	NAKs bool

	// CompleteTimeout is when an unfinished packet is recorded as
	// undelivered.
	CompleteTimeout float64
}

// DefaultConfig returns the paper's evaluation configuration: k chosen so
// H = 5 at 200 nodes. Notify-and-go and the intersection guard are
// protocol features that default off in throughput figures and on in the
// anonymity experiments, mirroring the paper.
func DefaultConfig() Config {
	return Config{
		K:                  6,
		H:                  0,
		NotifyAndGo:        false,
		NotifyT:            2e-3,
		NotifyT0:           8e-3,
		IntersectionGuard:  false,
		HoldRelease:        2.5,
		ChargeSessionSetup: true,
		Confirm:            false,
		NAKs:               false,
		CompleteTimeout:    8.0,
	}
}

// Depth returns the partition depth H a network of n nodes runs at: H
// when set, else log2(n/K) (Section 2.4).
func (c Config) Depth(n int) int {
	if c.H > 0 {
		return c.H
	}
	return geo.PartitionsForK(n, c.K)
}

// The paper's single values for the settings no experiment varies.
const (
	// coverSize is the size of covering packets ("several bytes of
	// random data", Section 2.6).
	coverSize = 16
	// stepOneHolders is m, the number of zone nodes receiving the
	// intersection guard's step-one multicast (Section 3.3).
	stepOneHolders = 3
	// bitmapBits is how many payload bits the last forwarder flips.
	bitmapBits = 16
	// confirmTimeout is the resend timer of Config.Confirm, in seconds.
	confirmTimeout = 2.0
	// maxRetries bounds retransmissions per packet.
	maxRetries = 2
)

// Counters tallies protocol-level activity.
type Counters struct {
	DataSent        uint64
	Delivered       uint64
	ZoneBroadcasts  uint64
	ZoneRelays      uint64
	Step1Multicasts uint64
	Step2Releases   uint64
	CoversSent      uint64
	CoversHeard     uint64
	Acks            uint64
	NAKs            uint64
	Resends         uint64
	LegDrops        uint64
}

// flight is the in-simulation bookkeeping for one application packet.
// A flight is complete when its record is (rec.Done), and its timers are
// cancelled without checking: cancelling a zero, fired or cancelled handle
// is a no-op.
type flight struct {
	env       *Envelope
	rec       *metrics.PacketRecord
	src, dst  medium.NodeID
	taken     bool // D has taken a copy; every later one is a duplicate
	acked     bool
	retries   int
	timeoutID sim.EventID
	retryID   sim.EventID
}

type sessKey struct {
	s, d medium.NodeID
}

// session holds the S-D pair's shared cryptographic state: the symmetric
// key K_s (encrypted once under K_pub^D), the encrypted source zone, and
// sequencing.
type session struct {
	key       crypt.SymKey
	encKey    []byte
	encLZS    []byte
	nextSeq   int
	flights   map[int]*flight // outstanding, for ack/NAK handling
	estCharge bool            // whether setup cost was charged already

	// destination-side state
	dest     DestSession
	dLastSeq int // the highest seq D has delivered
}

// DeliverFunc observes application-level deliveries (experiments hook it).
type DeliverFunc func(src, dst medium.NodeID, seq int, data []byte, t float64)

// ZoneRecipientsFunc observes the recipient set of each zone delivery step
// along with the destination zone the delivery targeted; the
// intersection-attack experiments use it as ground truth.
type ZoneRecipientsFunc func(seq int, step int, zone geo.Rect, recipients []medium.NodeID, t float64)

// Protocol is one ALERT instance covering the whole network (each node's
// state is keyed by node id, as a per-node daemon would hold it).
type Protocol struct {
	net    *node.Network
	loc    *locservice.Service
	cfg    Config
	router *gpsr.Router
	col    *metrics.Collector
	rnd    *rng.Source
	field  geo.Rect
	hDef   int // derived H when cfg.H == 0
	// packetSize is the on-air size of data packets in bytes.
	packetSize int

	sessions map[sessKey]*session
	held     map[medium.NodeID][]*heldItem
	counts   Counters

	// zone, zoneAt and zoneAll are zoneMembers' memo: zone's members
	// with their beacons, gathered at instant zoneAt (NaN until the first
	// gathering). zoneIDs and zoneNbrs are its scratch. They live on the
	// Protocol, not at package level, because campaign cells run
	// protocols concurrently.
	zone     geo.Rect
	zoneAt   float64
	zoneAll  []medium.Neighbor
	zoneIDs  []medium.NodeID
	zoneNbrs []medium.Neighbor
	// nbrs holds the neighbor table that notifyAndGo and the guard's
	// candidate gather read, refilled by each read.
	nbrs []medium.Neighbor

	// OnDeliver, when set, observes every first delivery at D.
	OnDeliver DeliverFunc
	// OnZoneRecipients, when set, observes zone delivery recipient sets.
	OnZoneRecipients ZoneRecipientsFunc

	// tap, when non-nil, observes RF selections and zone broadcasts.
	tap *telemetry.Tap
}

// SetTap attaches a telemetry tap observing ALERT-level routing events (RF
// selections, zone-broadcast steps) and wires the same tap into the
// underlying GPSR router. A nil tap (the default) disables both.
func (p *Protocol) SetTap(t *telemetry.Tap) {
	p.tap = t
	p.router.SetTap(t)
}

// New creates the protocol, derives H if unset, and attaches the medium
// demux handler on every node. packetSize is the on-air size of data
// packets in bytes. A non-positive packetSize or K is an error.
func New(net *node.Network, loc *locservice.Service, cfg Config, packetSize int, src *rng.Source) (*Protocol, error) {
	if packetSize <= 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("core: invalid config %+v with packet size %d", cfg, packetSize)
	}
	p := &Protocol{
		net:        net,
		loc:        loc,
		cfg:        cfg,
		router:     gpsr.New(net),
		col:        metrics.NewCollector(),
		rnd:        src.Split("alert"),
		field:      net.Field(),
		packetSize: packetSize,
		sessions:   make(map[sessKey]*session),
		held:       make(map[medium.NodeID][]*heldItem),
		zoneAt:     math.NaN(),
	}
	p.hDef = cfg.Depth(net.N())
	for i := 0; i < net.N(); i++ {
		id := medium.NodeID(i)
		net.Med.Attach(id, func(from medium.NodeID, payload any, _ int) {
			switch v := payload.(type) {
			case *gpsr.Packet:
				p.router.Handle(id, v)
			case *ZoneDelivery:
				p.handleZone(id, from, v)
			case *coverPacket:
				// Receivers try to decrypt the (absent) TTL and
				// drop the packet (Section 2.6) — one public-key
				// attempt each.
				p.net.NotePub(1)
				p.counts.CoversHeard++
			}
		})
	}
	return p, nil
}

// H returns the partition depth in use.
func (p *Protocol) H() int { return p.hDef }

// Collector returns the metrics collector for this run.
func (p *Protocol) Collector() *metrics.Collector { return p.col }

// Counters returns protocol counters.
func (p *Protocol) Counters() Counters { return p.counts }

// Router exposes the underlying GPSR router (its counters feed the
// evaluation).
func (p *Protocol) Router() *gpsr.Router { return p.router }

func (p *Protocol) session(src, dst medium.NodeID) *session {
	k := sessKey{src, dst}
	if s, ok := p.sessions[k]; ok {
		return s
	}
	s := &session{
		flights:  make(map[int]*flight),
		dLastSeq: -1,
	}
	p.sessions[k] = s
	return s
}
