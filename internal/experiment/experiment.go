// Package experiment is the evaluation harness: it assembles a simulated
// MANET (Section 5.2's parameters are the defaults), drives the CBR
// workload over randomly chosen S-D pairs, runs one of the four protocols
// (ALERT, GPSR, ALARM, AO2P), and aggregates the paper's metrics over
// independent seeded runs with 95% confidence intervals.
package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"alertmanet/internal/alarm"
	"alertmanet/internal/ao2p"
	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/metrics"
	"alertmanet/internal/mobility"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
	"alertmanet/internal/stats"
	"alertmanet/internal/telemetry"
	"alertmanet/internal/zap"
)

// ProtocolName selects the routing protocol under test.
type ProtocolName string

// The four protocols of the evaluation.
const (
	ALERT ProtocolName = "alert"
	GPSR  ProtocolName = "gpsr"
	ALARM ProtocolName = "alarm"
	AO2P  ProtocolName = "ao2p"
	// ZAP is an additional baseline beyond the paper's comparison set:
	// destination cloaking with zone flooding [13], used by the
	// Section 3.3 trade-off experiment.
	ZAP ProtocolName = "zap"
)

// WorkloadName selects the traffic model.
type WorkloadName string

// Traffic models: the paper's constant-bit-rate stream, a Poisson process
// with the same mean rate, and an on/off burst source (multimedia frames
// arrive in talkspurts, not on a metronome).
const (
	CBR     WorkloadName = "cbr"
	Poisson WorkloadName = "poisson"
	Burst   WorkloadName = "burst"
)

// MobilityName selects the movement model (Section 5.1).
type MobilityName string

// Movement models.
const (
	RandomWaypoint MobilityName = "rwp"
	GroupMobility  MobilityName = "group"
	Static         MobilityName = "static"
	// NS2Trace replays a recorded NS-2 setdest movement script
	// (Scenario.NS2TracePath).
	NS2Trace MobilityName = "ns2"
)

// Scenario is one simulation configuration. DefaultScenario gives the
// paper's Section 5.2 settings.
type Scenario struct {
	Seed     int64
	Protocol ProtocolName

	N     int
	Field geo.Rect
	Speed float64

	Mobility   MobilityName
	Groups     int
	GroupRange float64
	// NS2TracePath, when set with Mobility == NS2Trace, replays an NS-2
	// setdest movement script instead of a synthetic model.
	NS2TracePath string

	Duration float64 // seconds of simulated time; no traffic sends after it
	// DrainTime is how long the run keeps executing after Duration so
	// in-flight packets can finish; nothing sends during the drain.
	DrainTime float64
	Pairs     int     // concurrent S-D pairs
	Interval  float64 // seconds between packets of one pair
	Packets   int     // if > 0, cap packets per pair
	// Workload selects the traffic model; CBR is the paper's.
	Workload WorkloadName

	PacketSize    int
	LossRate      float64
	HelloInterval float64
	// MaxEvents, when non-zero, bounds the engine's event budget: a run
	// whose event count exceeds it fails with sim.ErrMaxEvents instead of
	// hanging — the guard rail for fuzzed or adversarial scenarios.
	MaxEvents uint64
	// NoARQ disables the medium's link-layer ACK/retransmission (sets
	// medium.Params.Retries to 0), reproducing the fire-and-forget
	// channel of the pre-ARQ harness for before/after comparisons.
	NoARQ bool

	// LocUpdates refreshes the location service every
	// locservice.UpdateInterval; off freezes registered positions.
	LocUpdates bool

	Alert core.Config
	Alarm alarm.Config
	Zap   zap.Config
}

// DefaultScenario returns the paper's evaluation defaults: 1,000 m square
// field, 200 nodes at 2 m/s random waypoint, 10 S-D pairs sending a 512 B
// packet every 2 s for 100 s, destination updates on.
func DefaultScenario() Scenario {
	alertCfg := core.DefaultConfig()
	// The paper's latency metric charges per-packet symmetric crypto
	// only; session key establishment lives in the untimed handshake.
	alertCfg.ChargeSessionSetup = false
	return Scenario{
		Seed:          1,
		Protocol:      ALERT,
		N:             200,
		Field:         geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}},
		Speed:         2,
		Mobility:      RandomWaypoint,
		Groups:        10,
		GroupRange:    150,
		Duration:      100,
		DrainTime:     10,
		Pairs:         10,
		Interval:      2,
		PacketSize:    512,
		LossRate:      0,
		HelloInterval: 1,
		LocUpdates:    true,
		Alert:         alertCfg,
		Alarm:         alarm.DefaultConfig(),
	}
}

// Validate checks that the scenario describes a runnable experiment. Build
// and Run call it, so a bad configuration surfaces as an error before any
// simulation state exists.
func (sc Scenario) Validate() error {
	switch sc.Protocol {
	case ALERT, GPSR, ALARM, AO2P, ZAP:
	default:
		return fmt.Errorf("experiment: unknown protocol %q", sc.Protocol)
	}
	switch sc.Workload {
	case "", CBR, Poisson, Burst: // "" means CBR, the paper's model
	default:
		return fmt.Errorf("experiment: unknown workload %q", sc.Workload)
	}
	switch sc.Mobility {
	case NS2Trace:
		if sc.NS2TracePath == "" {
			return fmt.Errorf("experiment: mobility %q requires NS2TracePath", sc.Mobility)
		}
	case RandomWaypoint, GroupMobility, Static:
		// A trace overrides N; synthetic models need nodes to place.
		if sc.N < 2 {
			return fmt.Errorf("experiment: need at least 2 nodes, got %d", sc.N)
		}
	default:
		return fmt.Errorf("experiment: unknown mobility %q", sc.Mobility)
	}
	for _, v := range []struct {
		name string
		x    float64
	}{
		{"field", sc.Field.Min.X}, {"field", sc.Field.Min.Y}, {"field", sc.Field.Max.X}, {"field", sc.Field.Max.Y},
		{"speed", sc.Speed}, {"group range", sc.GroupRange}, {"duration", sc.Duration},
		{"drain time", sc.DrainTime}, {"send interval", sc.Interval},
		{"loss rate", sc.LossRate}, {"hello interval", sc.HelloInterval},
	} {
		if math.IsNaN(v.x) || math.IsInf(v.x, 0) {
			return fmt.Errorf("experiment: %s must be finite, got %v", v.name, v.x)
		}
	}
	if sc.Field.Empty() {
		return fmt.Errorf("experiment: empty field %v", sc.Field)
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("experiment: duration must be positive, got %v", sc.Duration)
	}
	if sc.DrainTime < 0 {
		return fmt.Errorf("experiment: drain time must be non-negative, got %v", sc.DrainTime)
	}
	if sc.Interval <= 0 {
		return fmt.Errorf("experiment: send interval must be positive, got %v", sc.Interval)
	}
	if sc.Pairs < 1 {
		return fmt.Errorf("experiment: need at least one S-D pair, got %d", sc.Pairs)
	}
	if sc.Mobility != NS2Trace && sc.Pairs > sc.N*(sc.N-1) {
		return fmt.Errorf("experiment: %d distinct pairs impossible with %d nodes", sc.Pairs, sc.N)
	}
	if sc.Packets < 0 {
		return fmt.Errorf("experiment: packet cap must be non-negative, got %d", sc.Packets)
	}
	if sc.PacketSize <= 0 {
		return fmt.Errorf("experiment: packet size must be positive, got %d", sc.PacketSize)
	}
	if sc.Speed < 0 {
		return fmt.Errorf("experiment: speed must be non-negative, got %v", sc.Speed)
	}
	if sc.LossRate < 0 || sc.LossRate > 1 {
		return fmt.Errorf("experiment: loss rate must be in [0,1], got %v", sc.LossRate)
	}
	return nil
}

// MediumParams returns the channel configuration the scenario runs on: the
// paper's, with the scenario's loss rate, its hello interval when set, and
// no link-layer retransmission under NoARQ. The simulator and the live
// daemons both read it.
func (sc Scenario) MediumParams() medium.Params {
	par := medium.DefaultParams()
	par.LossRate = sc.LossRate
	if sc.HelloInterval > 0 {
		par.HelloInterval = sc.HelloInterval
	}
	if sc.NoARQ {
		par.Retries = 0
	}
	return par
}

// Hash returns a hex SHA-256 content hash of the full scenario
// configuration — the identity a telemetry run manifest records, so a JSONL
// stream can be matched back to exactly what was simulated.
func (sc Scenario) Hash() string {
	// Scenario is a plain data struct: every field (including the nested
	// protocol configs) is JSON-marshalable, so this cannot fail.
	buf, err := json.Marshal(sc)
	if err != nil {
		//lint:allowpanic a non-marshalable Scenario is a compile-time-shape bug, not a runtime condition
		panic(fmt.Sprintf("experiment: hash scenario: %v", err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Proto is the common protocol surface the harness drives. Send's error
// reports a failure to even launch the packet (ALERT's session-key or
// source-zone encryption being rejected by the destination key); the
// metrics record is completed as undelivered in that case, so harness code
// that only aggregates metrics may ignore it.
type Proto interface {
	Send(src, dst medium.NodeID, data []byte) (*metrics.PacketRecord, error)
	Collector() *metrics.Collector
}

// World is one fully assembled simulation.
type World struct {
	Scenario Scenario
	Eng      *sim.Engine
	Mob      mobility.Model
	Med      *medium.Medium
	Net      *node.Network
	Loc      *locservice.Service
	Proto    Proto
	// Alert is non-nil when Scenario.Protocol == ALERT.
	Alert *core.Protocol
	// Rand is the workload random stream.
	Rand *rng.Source
	// Tap is the telemetry tap attached by EnableTelemetry (nil when
	// telemetry is off).
	Tap *telemetry.Tap
}

// EnableTelemetry threads one tap through every instrumented layer of the
// world: engine, medium, router, protocol (ALERT's RF/zone events), crypto
// charges and the metrics collector. Call it after Build and before any
// traffic; a nil tap is a no-op, leaving every layer on its zero-cost
// disabled path.
func (w *World) EnableTelemetry(tap *telemetry.Tap) {
	if tap == nil {
		return
	}
	w.Tap = tap
	w.Eng.SetTap(tap)
	w.Med.SetTap(tap)
	w.Net.SetTap(tap)
	if w.Alert != nil {
		w.Alert.SetTap(tap) // wires the router tap too
	} else if r := w.Router(); r != nil {
		r.SetTap(tap)
	}
	w.Proto.Collector().SetTap(tap, w.Eng.Now)
}

// Build assembles a World from a scenario without starting any traffic.
// The scenario is validated first; an invalid one returns an error rather
// than a half-built world.
func Build(sc Scenario) (*World, error) {
	return buildArena(sc, nil)
}

// buildArena is Build with optional substrate reuse: a non-nil arena
// supplies a recycled engine and backs the collector's packet records with
// its slab.
func buildArena(sc Scenario, arena *Arena) (*World, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(sc.Seed)
	var eng *sim.Engine
	if arena != nil {
		eng = arena.engine()
	} else {
		eng = sim.NewEngine()
	}
	eng.SetMaxEvents(sc.MaxEvents)

	// Only a field large enough to fork gets the Forker: the mobility
	// constructors keep their allocation-free serial loops on nil.
	var fork mobility.Forker
	if sim.Forks(sc.N) {
		fork = sim.For
	}

	var mob mobility.Model
	switch sc.Mobility {
	case NS2Trace:
		f, err := os.Open(sc.NS2TracePath)
		if err != nil {
			return nil, fmt.Errorf("experiment: open NS-2 trace: %w", err)
		}
		tm, err := mobility.ParseNS2(f, sc.Field)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("experiment: parse NS-2 trace: %w", err)
		}
		mob = tm
		sc.N = tm.N()
		if sc.Pairs > sc.N*(sc.N-1) {
			return nil, fmt.Errorf("experiment: %d distinct pairs impossible with %d trace nodes", sc.Pairs, sc.N)
		}
	case Static:
		mob = mobility.NewStatic(sc.Field, sc.N, src)
	case GroupMobility:
		mob = mobility.NewGroupMobility(sc.Field, sc.N, sc.Groups, sc.GroupRange,
			sc.Speed, fork, src)
	default: // RandomWaypoint; Validate rejected everything else
		mob = mobility.NewRandomWaypoint(sc.Field, sc.N, sc.Speed, fork, src)
	}

	med, err := medium.New(eng, mob, sc.MediumParams(), src)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.DefaultCostModel(), src)
	net.RotatePseudonyms()
	loc := locservice.New(net, sc.LocUpdates)

	w := &World{
		Scenario: sc, Eng: eng, Mob: mob, Med: med, Net: net, Loc: loc,
		Rand: src.Split("workload"),
	}
	switch sc.Protocol {
	case ALERT:
		p, err := core.New(net, loc, sc.Alert, sc.PacketSize, src)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		w.Alert = p
		w.Proto = p
	case GPSR:
		w.Proto = gpsr.NewApp(net, loc, sc.PacketSize)
	case ALARM:
		w.Proto = alarm.New(net, loc, sc.Alarm, sc.PacketSize)
	case AO2P:
		w.Proto = ao2p.New(net, loc, sc.PacketSize, src)
	case ZAP:
		w.Proto = zap.New(net, loc, sc.Zap, sc.PacketSize, src)
	}
	if arena != nil {
		// Collectors were just created empty; every record this run opens
		// now comes from the arena's slab.
		w.Proto.Collector().UseSlab(&arena.recs)
	}
	return w, nil
}

// MustBuild is Build for callers whose scenario is known good (tests,
// examples, generated presets); it panics on error.
func MustBuild(sc Scenario) *World {
	w, err := Build(sc)
	if err != nil {
		panic(err)
	}
	return w
}

// Router returns the GPSR router the scenario's protocol routes over (all
// five protocols ride the same substrate). Invariant checks use it: after a
// drained run, Sent == Delivered + ArrivedClosest + DroppedTTL +
// DroppedDeadEnd + DroppedLink must hold — every routing attempt ends in
// exactly one terminal outcome.
func (w *World) Router() *gpsr.Router {
	r, ok := w.Proto.(interface{ Router() *gpsr.Router })
	if !ok {
		return nil
	}
	return r.Router()
}

// Pair is one S-D communication pair.
type Pair struct {
	S, D medium.NodeID
}

// ChoosePairs draws the scenario's random S-D pairs. The pairs are
// distinct: a duplicate (S, D) flow would be merged with its twin by
// routeJaccard's per-pair grouping and skew the similarity numbers.
// Validate guarantees enough distinct pairs exist, so the draw terminates.
func (w *World) ChoosePairs() []Pair {
	pairs := make([]Pair, 0, w.Scenario.Pairs)
	seen := make(map[Pair]bool, w.Scenario.Pairs)
	for len(pairs) < w.Scenario.Pairs {
		s := medium.NodeID(w.Rand.Intn(w.Scenario.N))
		d := medium.NodeID(w.Rand.Intn(w.Scenario.N))
		pr := Pair{S: s, D: d}
		if s != d && !seen[pr] {
			seen[pr] = true
			pairs = append(pairs, pr)
		}
	}
	return pairs
}

// EnergyModel converts counted work (radio bytes and cryptographic
// operations) into joules. The defaults take WaveLAN-class radio costs and
// the paper's reference [26] ratio — a public-key operation costs hundreds
// of times a symmetric one.
type EnergyModel struct {
	TxPerByte float64 // J per transmitted byte
	RxPerByte float64 // J per received byte
	SymOp     float64 // J per symmetric encryption/decryption
	PubOp     float64 // J per public-key operation
}

// DefaultEnergyModel returns the calibration used by the energy figures:
// transmission plus computation energy. Reception/overhearing is excluded
// (RxPerByte = 0), the common convention in MANET protocol energy analyses
// — in a broadcast medium every node in range decodes every frame
// regardless of protocol, so reception costs are workload-independent
// background; set RxPerByte to study them.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		TxPerByte: 1.0e-6,
		RxPerByte: 0,
		SymOp:     50e-6,
		PubOp:     15e-3, // 300x symmetric, within [26]'s "hundreds of times"
	}
}

// Result holds one run's metrics.
type Result struct {
	Sent          int
	Delivered     int
	DeliveryRate  float64
	MeanLatency   float64
	HopsPerPacket float64
	MeanRFs       float64
	Participants  int
	Cumulative    []int
	RouteJaccard  float64
	// EnergyJoules is the run's total radio + crypto energy;
	// EnergyPerDelivered divides it by delivered packets (Inf if none).
	EnergyJoules       float64
	EnergyPerDelivered float64
	// LatencyP50/P95/P99 are end-to-end delay percentiles over delivered
	// packets, and Jitter is the standard deviation of delay — the
	// quantities a multimedia stream actually experiences (the paper's
	// Section 1 motivation).
	LatencyP50 float64
	LatencyP95 float64
	LatencyP99 float64
	Jitter     float64
	// LoadGini is the Gini coefficient of per-node transmission counts:
	// 0 means perfectly even relay load, 1 means one node carries
	// everything. ALERT's random forwarders spread the battery drain that
	// shortest-path routing concentrates on a few relays.
	LoadGini float64
}

// Run builds the world, drives the workload, and collects metrics.
func Run(sc Scenario) (Result, error) {
	res, _, err := RunWorld(sc, nil)
	return res, err
}

// RunWorld is Run with an optional telemetry tap threaded through the
// whole stack, returning the drained world alongside the metrics so a
// caller can also snapshot the tap's registry, engine counters or channel
// state. The build→pairs→workload→drain→collect order is the determinism
// contract: telemetry must not perturb it.
func RunWorld(sc Scenario, tap *telemetry.Tap) (Result, *World, error) {
	w, err := Build(sc)
	if err != nil {
		return Result{}, nil, err
	}
	w.EnableTelemetry(tap)
	pairs := w.ChoosePairs()
	w.StartWorkload(pairs)
	if err := w.Drain(); err != nil {
		return Result{}, nil, err
	}
	return w.Collect(pairs), w, nil
}

// MustRun is Run for callers whose scenario is known good; it panics on
// error.
func MustRun(sc Scenario) Result {
	res, err := Run(sc)
	if err != nil {
		panic(err)
	}
	return res
}

// Drain executes the simulation through the send horizon plus the drain
// phase: traffic stops at Scenario.Duration (the workload driver's
// invariant) and in-flight packets get Scenario.DrainTime more seconds to
// finish. This is the one place the run's time horizon is defined. The
// error is sim.ErrMaxEvents when Scenario.MaxEvents is set and exhausted.
func (w *World) Drain() error {
	return w.Eng.RunUntil(w.Scenario.Duration + w.Scenario.DrainTime)
}

// Collect summarizes the collector into a Result.
func (w *World) Collect(pairs []Pair) Result {
	col := w.Proto.Collector()
	res := Result{
		Sent:          col.Sent(),
		Delivered:     col.Delivered(),
		DeliveryRate:  col.DeliveryRate(),
		MeanLatency:   col.MeanLatency(),
		HopsPerPacket: col.HopsPerPacket(),
		MeanRFs:       col.MeanRFs(),
		Participants:  col.Participants(),
		Cumulative:    col.CumulativeParticipants(),
	}
	res.RouteJaccard = routeJaccard(col, pairs)
	var lat stats.Sample
	for _, r := range col.Records() {
		if r.Delivered {
			lat.Add(r.Latency())
		}
	}
	res.LatencyP50 = lat.Quantile(0.50)
	res.LatencyP95 = lat.Quantile(0.95)
	res.LatencyP99 = lat.Quantile(0.99)
	res.Jitter = lat.StdDev()
	em := DefaultEnergyModel()
	mc := w.Med.Counters()
	res.EnergyJoules = float64(mc.TxBytes)*em.TxPerByte +
		float64(mc.RxBytes)*em.RxPerByte +
		float64(w.Net.Ops.Sym)*em.SymOp +
		float64(w.Net.Ops.Pub)*em.PubOp
	if res.Delivered > 0 {
		res.EnergyPerDelivered = res.EnergyJoules / float64(res.Delivered)
	} else {
		res.EnergyPerDelivered = math.Inf(1)
	}
	res.LoadGini = gini(w.Med.TxByNode())
	return res
}

// gini computes the Gini coefficient of non-negative counts.
func gini(counts []uint64) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	total := 0.0
	for i, c := range counts {
		sorted[i] = float64(c)
		total += float64(c)
	}
	//lint:allowfloatcompare total is a sum of exact uint64 conversions; zero is exact
	if total == 0 {
		return 0
	}
	sort.Float64s(sorted)
	// G = (2*sum(i*x_i) / (n*sum(x))) - (n+1)/n with 1-based i.
	weighted := 0.0
	for i, x := range sorted {
		weighted += float64(i+1) * x
	}
	return 2*weighted/(float64(n)*total) - float64(n+1)/float64(n)
}

// routeJaccard averages consecutive-packet relay-set similarity per pair.
func routeJaccard(col *metrics.Collector, pairs []Pair) float64 {
	byPair := map[Pair][][]medium.NodeID{}
	for _, r := range col.Records() {
		if !r.Delivered {
			continue
		}
		p := Pair{S: r.Src, D: r.Dst}
		byPair[p] = append(byPair[p], r.Path)
	}
	// Iterate the pairs slice, not the byPair map: float addition is not
	// associative, so summing in map order drifts in the last ULP from run
	// to run (caught by TestSeedDeterminismParallel).
	total, n := 0.0, 0
	for _, p := range pairs {
		routes := byPair[p]
		for i := 1; i < len(routes); i++ {
			total += jaccardIDs(routes[i-1], routes[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// jaccardIDs is the Jaccard similarity of two paths' id sets, 1 when both
// are empty. Paths are a few hops long, so it counts distinct and shared
// ids by scanning the paths themselves: an id counts at its first
// occurrence in its path.
func jaccardIDs(a, b []medium.NodeID) float64 {
	da, db, inter := 0, 0, 0
	for i, id := range a {
		if !slices.Contains(a[:i], id) {
			da++
			if slices.Contains(b, id) {
				inter++
			}
		}
	}
	for i, id := range b {
		if !slices.Contains(b[:i], id) {
			db++
		}
	}
	union := da + db - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Aggregate summarizes a metric over independent runs.
type Aggregate struct {
	DeliveryRate  stats.Summary
	MeanLatency   stats.Summary
	HopsPerPacket stats.Summary
	MeanRFs       stats.Summary
	Participants  stats.Summary
	RouteJaccard  stats.Summary
}

// AggregateResults summarizes per-seed results with 95% confidence
// intervals, in slice order.
func AggregateResults(results []Result) Aggregate {
	var del, lat, hops, rfs, parts, jac stats.Sample
	for _, r := range results {
		del.Add(r.DeliveryRate)
		lat.Add(r.MeanLatency)
		hops.Add(r.HopsPerPacket)
		rfs.Add(r.MeanRFs)
		parts.Add(float64(r.Participants))
		jac.Add(r.RouteJaccard)
	}
	return Aggregate{
		DeliveryRate:  del.Summarize(),
		MeanLatency:   lat.Summarize(),
		HopsPerPacket: hops.Summarize(),
		MeanRFs:       rfs.Summarize(),
		Participants:  parts.Summarize(),
		RouteJaccard:  jac.Summarize(),
	}
}
