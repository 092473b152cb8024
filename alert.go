// Package alert is a Go reproduction of "ALERT: An Anonymous Location-Based
// Efficient Routing Protocol in MANETs" (Shen & Zhao, ICPP 2011 / IEEE TMC
// 2012). It bundles a discrete-event MANET simulator (mobility, radio,
// location service, GPSR), the ALERT protocol itself, the AO2P and ALARM
// comparators, the paper's adversary models, and the evaluation harness
// that regenerates every figure and table of the paper.
//
// This package is the public facade. Quick start:
//
//	cfg := alert.DefaultConfig()
//	res, err := alert.Run(cfg)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("delivery %.2f, latency %.1f ms\n",
//		res.DeliveryRate, res.MeanLatencySeconds*1e3)
//
// For interactive control (send individual messages, observe deliveries,
// mount attacks) build a Network:
//
//	net, err := alert.NewNetwork(cfg)
//	net.OnDeliver(func(d alert.Delivery) { ... })
//	net.Send(3, 117, []byte("hello"))
//	net.RunFor(10) // simulated seconds
//
// The deeper layers live under internal/: geo (zone partition), sim (event
// engine), mobility, medium, gpsr, core (ALERT), ao2p, alarm, adversary,
// analysis (the paper's closed forms), and experiment (figures).
package alert

import (
	"fmt"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/trace"
)

// Protocol selects the routing protocol under test.
type Protocol string

// The four protocols of the paper's evaluation.
const (
	ALERT Protocol = "alert" // the paper's contribution
	GPSR  Protocol = "gpsr"  // baseline geographic routing
	ALARM Protocol = "alarm" // proactive, redundant-traffic comparator
	AO2P  Protocol = "ao2p"  // hop-by-hop-encryption comparator
	// ZAP is an extra baseline beyond the paper's set: destination
	// cloaking with zone flooding [13].
	ZAP Protocol = "zap"
)

// Workload selects the traffic model.
type Workload string

// Traffic models: the paper's CBR stream, a Poisson process of the same
// mean rate, and an on/off burst source.
const (
	CBR         Workload = "cbr"
	PoissonLoad Workload = "poisson"
	BurstLoad   Workload = "burst"
)

// Mobility selects the movement model.
type Mobility string

// Movement models from Section 5.1.
const (
	RandomWaypoint Mobility = "rwp"
	GroupMobility  Mobility = "group"
	Static         Mobility = "static"
)

// Config describes one simulated MANET and workload. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Seed makes the whole run reproducible.
	Seed int64
	// Protocol is the routing protocol under test.
	Protocol Protocol

	// Nodes is the network size N (default 200).
	Nodes int
	// FieldSize is the square field's side length in meters (1000).
	FieldSize float64
	// Speed is the node speed in m/s (2).
	Speed float64
	// Mobility is the movement model; Groups/GroupRange configure the
	// group model (10 groups, 150 m).
	Mobility   Mobility
	Groups     int
	GroupRange float64

	// Duration is the simulated seconds of workload (100). No traffic
	// model sends after it; the run then drains for DrainSeconds.
	Duration float64
	// DrainSeconds is how long the run keeps executing after Duration so
	// in-flight packets can finish (10 when zero).
	DrainSeconds float64
	// Pairs is the number of concurrent S-D pairs (10).
	Pairs int
	// IntervalSeconds is the mean packet interval per pair (2).
	IntervalSeconds float64
	// Traffic selects the workload model (CBR default).
	Traffic Workload
	// PacketSize is the data packet size in bytes (512).
	PacketSize int

	// K is ALERT's destination k-anonymity parameter; the partition
	// depth follows H = log2(N/K) unless PartitionH overrides it.
	K          int
	PartitionH int
	// NotifyAndGo enables ALERT's source-anonymity cover traffic.
	NotifyAndGo bool
	// IntersectionGuard enables ALERT's two-step m-of-k multicast.
	IntersectionGuard bool
	// Confirm enables destination confirmations with retransmission.
	Confirm bool
	// NAKs enables gap-triggered negative acknowledgements.
	NAKs bool

	// LossRate injects random frame loss.
	LossRate float64
	// LocationUpdates toggles the location service's periodic position
	// refresh — the paper's "with/without destination update".
	LocationUpdates bool
}

// DefaultConfig returns the paper's Section 5.2 parameters with ALERT as
// the protocol under test, read from experiment.DefaultScenario.
func DefaultConfig() Config {
	sc := experiment.DefaultScenario()
	return Config{
		Seed:              sc.Seed,
		Protocol:          Protocol(sc.Protocol),
		Nodes:             sc.N,
		FieldSize:         sc.Field.Max.X,
		Speed:             sc.Speed,
		Mobility:          Mobility(sc.Mobility),
		Groups:            sc.Groups,
		GroupRange:        sc.GroupRange,
		Duration:          sc.Duration,
		DrainSeconds:      sc.DrainTime,
		Pairs:             sc.Pairs,
		IntervalSeconds:   sc.Interval,
		Traffic:           Workload(sc.Workload),
		PacketSize:        sc.PacketSize,
		K:                 sc.Alert.K,
		PartitionH:        sc.Alert.H,
		NotifyAndGo:       sc.Alert.NotifyAndGo,
		IntersectionGuard: sc.Alert.IntersectionGuard,
		Confirm:           sc.Alert.Confirm,
		NAKs:              sc.Alert.NAKs,
		LossRate:          sc.LossRate,
		LocationUpdates:   sc.LocUpdates,
	}
}

// scenario translates the public Config into the internal Scenario.
func (c Config) scenario() experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.Seed = c.Seed
	sc.Protocol = experiment.ProtocolName(c.Protocol)
	if c.Nodes > 0 {
		sc.N = c.Nodes
	}
	if c.FieldSize > 0 {
		sc.Field.Max.X = c.FieldSize
		sc.Field.Max.Y = c.FieldSize
	}
	sc.Speed = c.Speed
	if c.Mobility != "" {
		sc.Mobility = experiment.MobilityName(c.Mobility)
	}
	if c.Groups > 0 {
		sc.Groups = c.Groups
	}
	if c.GroupRange > 0 {
		sc.GroupRange = c.GroupRange
	}
	if c.Duration > 0 {
		sc.Duration = c.Duration
	}
	if c.DrainSeconds > 0 {
		sc.DrainTime = c.DrainSeconds
	}
	if c.Pairs > 0 {
		sc.Pairs = c.Pairs
	}
	if c.IntervalSeconds > 0 {
		sc.Interval = c.IntervalSeconds
	}
	if c.PacketSize > 0 {
		sc.PacketSize = c.PacketSize
	}
	if c.K > 0 {
		sc.Alert.K = c.K
	}
	sc.Alert.H = c.PartitionH
	sc.Alert.NotifyAndGo = c.NotifyAndGo
	sc.Alert.IntersectionGuard = c.IntersectionGuard
	sc.Alert.Confirm = c.Confirm
	sc.Alert.NAKs = c.NAKs
	sc.LossRate = c.LossRate
	sc.LocUpdates = c.LocationUpdates
	if c.Traffic != "" {
		sc.Workload = experiment.WorkloadName(c.Traffic)
	}
	return sc
}

// Result summarizes one run with the paper's metrics.
type Result struct {
	// PacketsSent is the number of application packets issued.
	PacketsSent int
	// PacketsDelivered is the exact number that arrived.
	PacketsDelivered int
	// DeliveryRate is delivered / sent (metric 6).
	DeliveryRate float64
	// MeanLatencySeconds is the average end-to-end delay including
	// routing and cryptography (metric 5).
	MeanLatencySeconds float64
	// HopsPerPacket is accumulated hops over packets sent, including
	// protocol overhead traffic (metric 4).
	HopsPerPacket float64
	// MeanRandomForwarders is ALERT's average RF count (metric 2).
	MeanRandomForwarders float64
	// ParticipatingNodes is the cumulative count of distinct relays
	// (metric 1).
	ParticipatingNodes int
	// RouteSimilarity is the mean Jaccard similarity of consecutive
	// packets' relay sets for a pair: near 1 for shortest-path routing,
	// near 0 for ALERT's randomized routes.
	RouteSimilarity float64
	// EnergyPerDeliveredJoules is radio transmission plus cryptographic
	// energy divided by delivered packets (+Inf if nothing arrived).
	EnergyPerDeliveredJoules float64
}

// resultFrom converts an internal run result into the public Result.
func resultFrom(r experiment.Result) Result {
	return Result{
		PacketsSent:              r.Sent,
		PacketsDelivered:         r.Delivered,
		DeliveryRate:             r.DeliveryRate,
		MeanLatencySeconds:       r.MeanLatency,
		HopsPerPacket:            r.HopsPerPacket,
		MeanRandomForwarders:     r.MeanRFs,
		ParticipatingNodes:       r.Participants,
		RouteSimilarity:          r.RouteJaccard,
		EnergyPerDeliveredJoules: r.EnergyPerDelivered,
	}
}

// Run executes one full workload and returns its metrics. An invalid
// configuration (unknown protocol, non-positive duration, ...) returns an
// error rather than panicking.
func Run(cfg Config) (Result, error) {
	r, err := experiment.Run(cfg.scenario())
	if err != nil {
		return Result{}, err
	}
	return resultFrom(r), nil
}

// Delivery reports one application-level delivery at the destination.
type Delivery struct {
	Src, Dst int
	Seq      int
	Data     []byte
	// At is the simulated delivery time in seconds.
	At float64
}

// Network is an interactive simulation: send individual messages, advance
// virtual time, inspect metrics. Not safe for concurrent use.
type Network struct {
	w         *experiment.World
	onDeliver func(Delivery)
}

// NewNetwork builds a simulated MANET from the config without starting any
// traffic. An invalid configuration returns an error.
func NewNetwork(cfg Config) (*Network, error) {
	w, err := experiment.Build(cfg.scenario())
	if err != nil {
		return nil, err
	}
	n := &Network{w: w}
	if n.w.Alert != nil {
		n.w.Alert.OnDeliver = func(src, dst medium.NodeID, seq int, data []byte, t float64) {
			if n.onDeliver != nil {
				n.onDeliver(Delivery{
					Src: int(src), Dst: int(dst), Seq: seq, Data: data, At: t,
				})
			}
		}
	}
	return n, nil
}

// Nodes returns the network size.
func (n *Network) Nodes() int { return n.w.Net.N() }

// OnDeliver registers a callback for application deliveries (ALERT only).
func (n *Network) OnDeliver(fn func(Delivery)) { n.onDeliver = fn }

// Send routes one message from node src to node dst with the configured
// protocol. It returns an error for invalid node ids; the transmission
// itself is asynchronous — advance time with RunFor.
func (n *Network) Send(src, dst int, data []byte) error {
	if src < 0 || src >= n.Nodes() || dst < 0 || dst >= n.Nodes() {
		return fmt.Errorf("alert: node id out of range [0, %d)", n.Nodes())
	}
	if src == dst {
		return fmt.Errorf("alert: source and destination are the same node")
	}
	_, err := n.w.Proto.Send(medium.NodeID(src), medium.NodeID(dst), data)
	return err
}

// RunFor advances the simulation by d simulated seconds.
func (n *Network) RunFor(d float64) { n.w.Eng.RunUntil(n.w.Eng.Now() + d) }

// Position returns a node's current true position in meters.
func (n *Network) Position(id int) (x, y float64) {
	p := n.w.Med.PositionNow(medium.NodeID(id))
	return p.X, p.Y
}

// DestZone returns the corners (minX, minY, maxX, maxY) of the destination
// zone Z_D that ALERT would compute for a node right now.
func (n *Network) DestZone(id int) (minX, minY, maxX, maxY float64) {
	z := experiment.ZoneOf(n.w, medium.NodeID(id))
	return z.Min.X, z.Min.Y, z.Max.X, z.Max.Y
}

// Metrics returns the run's metrics so far.
func (n *Network) Metrics() Result {
	return resultFrom(n.w.Collect(nil))
}

// RouteMap renders an ASCII map (w x h characters) of the most recent
// delivered packet's route: '.' nodes, numbered relays in hop order, 'S'
// and 'D' endpoints, '#' the destination-zone outline. Returns "" when
// nothing has been delivered yet, and an error for a degenerate canvas
// (dimensions below 2x2).
func (n *Network) RouteMap(w, h int) (string, error) {
	recs := n.w.Proto.Collector().Records()
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if !r.Delivered {
			continue
		}
		positions := make([]geo.Point, n.Nodes())
		for id := range positions {
			positions[id] = n.w.Med.PositionNow(medium.NodeID(id))
		}
		zd := experiment.ZoneOf(n.w, r.Dst)
		return trace.RouteMap(n.w.Net.Field(), positions, r.Path, r.Src, r.Dst, zd, w, h)
	}
	return "", nil
}

// PartitionDepth returns ALERT's H for this network (0 for baselines).
func (n *Network) PartitionDepth() int {
	if n.w.Alert == nil {
		return 0
	}
	return n.w.Alert.H()
}
