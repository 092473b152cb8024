// The coordinator: the piece that turns a daemon fleet into the paper's
// field. It replays the scenario's mobility trajectories onto the fleet by
// pushing each daemon a fresh position and steered neighbor table every
// emulated hello interval (out-of-emulated-range peers simply never appear
// in a table, so the loopback fabric behaves like the radio medium), keeps
// the location-service entries of every flow refreshed on the scenario's
// update cadence, launches the exact flow schedule the simulator would run
// (same pairs, same offsets, same packet counts — derived from the same
// seeded streams), and finally scrapes every daemon's measurements into a
// fleet Summary.
//
// Wall-clock enters only as pacing: emulated time t maps to start +
// t*timescale. Every measured quantity rides the frames' virtual-time
// accumulator instead, so the summary is unchanged (statistically) by how
// hard the clock is compressed.

package live

import (
	"fmt"
	"math"
	"sort"
	"time"

	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/stats"
)

// Flow is one coordinator-derived flow: the live rendering of one sim S-D
// pair and its CBR schedule.
type Flow struct {
	ID      uint32
	Src     int
	Dst     int
	Offset  float64
	Packets int
}

// Summary aggregates a live run across the fleet — the live counterpart of
// experiment.Result, restricted to what live measures.
type Summary struct {
	Protocol     string       `json:"protocol"`
	Seed         int64        `json:"seed"`
	N            int          `json:"n"`
	Sent         int          `json:"sent"`
	Delivered    int          `json:"delivered"`
	DeliveryRate float64      `json:"delivery_rate"`
	MeanLatency  float64      `json:"mean_latency"`
	LatencyP50   float64      `json:"latency_p50"`
	LatencyP95   float64      `json:"latency_p95"`
	HopsPerPkt   float64      `json:"hops_per_packet"`
	Counters     Counters     `json:"counters"`
	Flows        []Flow       `json:"flows"`
	Sends        []SendRecord `json:"sends"`
	Deliveries   []Delivery   `json:"deliveries"`
}

// Coordinator drives one fleet through one scenario run.
type Coordinator struct {
	w     *experiment.World
	nodes []*Daemon
	byID  map[int]*Daemon

	// Timescale is real seconds per emulated second; it must match the
	// daemons' own Timescale (SpawnFleet guarantees this).
	Timescale float64
	// Slack is extra real time after the emulated horizon for in-flight
	// datagrams and ARQ exchanges to settle before collection.
	Slack time.Duration
	// Range is the emulated radio range used to steer neighbor tables;
	// it must match the daemons' Medium.Range.
	Range float64
}

// NewCoordinator pairs a built World with the fleet that will act it out.
func NewCoordinator(w *experiment.World, nodes []*Daemon, timescale float64) *Coordinator {
	byID := make(map[int]*Daemon, len(nodes))
	for _, d := range nodes {
		byID[d.ID()] = d
	}
	return &Coordinator{
		w: w, nodes: nodes, byID: byID,
		Timescale: timescale,
		Slack:     500 * time.Millisecond,
		Range:     medium.DefaultParams().Range,
	}
}

// RunFleet is the one-call harness: spawn the scenario's fleet, run the
// coordinator over it, tear the fleet down.
func RunFleet(sc experiment.Scenario, timescale float64) (Summary, error) {
	fl, err := SpawnFleet(sc, timescale)
	if err != nil {
		return Summary{}, err
	}
	defer fl.Close()
	return NewCoordinator(fl.World, fl.Handles(), timescale).Run()
}

// DeriveFlows mirrors World.StartWorkload's randomness step for step —
// same ChoosePairs draw, same payload read, same per-pair stream splits —
// so the live fleet runs the identical flow schedule the simulator would.
// Only the CBR workload (the paper's model, and the Scenario default) maps
// onto live flow pacing.
func DeriveFlows(w *experiment.World) ([]Flow, []byte, error) {
	sc := w.Scenario
	if sc.Workload != "" && sc.Workload != experiment.CBR {
		return nil, nil, fmt.Errorf("live: only the CBR workload maps to live flows, got %q", sc.Workload)
	}
	pairs := w.ChoosePairs()
	payload := make([]byte, 64)
	w.Rand.Read(payload)
	flows := make([]Flow, 0, len(pairs))
	for i, pr := range pairs {
		src := w.Rand.SplitIndex("pair", i)
		offset := src.Uniform(0, sc.Interval/2)
		if offset > sc.Duration {
			continue
		}
		// sim.TickerUntil fires at offset + k*Interval for
		// k = 0..floor((Duration-offset)/Interval).
		packets := int(math.Floor((sc.Duration-offset)/sc.Interval)) + 1
		if sc.Packets > 0 && packets > sc.Packets {
			packets = sc.Packets
		}
		flows = append(flows, Flow{
			ID: uint32(i), Src: int(pr.S), Dst: int(pr.D),
			Offset: offset, Packets: packets,
		})
	}
	return flows, payload, nil
}

// Run executes the scenario on the fleet and returns the aggregated
// summary. It blocks for the compressed wall-clock duration of the run:
// (Duration + DrainTime) * Timescale + Slack.
func (c *Coordinator) Run() (Summary, error) {
	if c.Timescale <= 0 {
		return Summary{}, fmt.Errorf("live: coordinator needs a positive timescale")
	}
	sc := c.w.Scenario
	flows, payload, err := DeriveFlows(c.w)
	if err != nil {
		return Summary{}, err
	}

	// Initial topology: daemons must know their position and neighbors
	// (and ALERT sources their own zone) before any flow starts.
	if err := c.pushTopology(0, flows, true); err != nil {
		return Summary{}, err
	}
	for _, fl := range flows {
		src, ok := c.byID[fl.Src]
		dst, okD := c.byID[fl.Dst]
		if !ok || !okD {
			return Summary{}, fmt.Errorf("live: flow %d references unknown node %d->%d", fl.ID, fl.Src, fl.Dst)
		}
		spec := FlowSpec{
			Flow: fl.ID,
			Dest: DestEntry{
				ID:        fl.Dst,
				Pos:       c.w.Mob.Position(fl.Dst, 0),
				Pseudonym: dst.Pseudonym(),
			},
			Packets:  fl.Packets,
			Interval: sc.Interval,
			Offset:   fl.Offset,
			Size:     sc.PacketSize,
			Payload:  payload,
		}
		if err := src.StartFlow(spec); err != nil {
			return Summary{}, err
		}
	}

	// March emulated time: topology every hello interval, location
	// entries every LocInterval (when updates are on), like the sim's
	// beacon and location-service cadences.
	hello := sc.HelloInterval
	if hello <= 0 {
		hello = 1
	}
	horizon := sc.Duration + sc.DrainTime
	start := time.Now()
	lastLoc := 0.0
	for t := hello; t <= horizon+1e-9; t += hello {
		target := time.Duration(t * c.Timescale * float64(time.Second))
		if d := target - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		refreshLoc := sc.LocUpdates && sc.LocInterval > 0 && t-lastLoc >= sc.LocInterval-1e-9
		if refreshLoc {
			lastLoc = t
		}
		if err := c.pushTopology(t, flows, refreshLoc); err != nil {
			return Summary{}, err
		}
	}
	time.Sleep(c.Slack)
	return c.collect(flows)
}

// pushTopology computes every node's position at emulated time t, builds
// the steered neighbor tables (emulated radio range over the loopback
// fabric), and pushes them — including refreshed location entries for the
// flows each node sources when refreshLoc is set.
func (c *Coordinator) pushTopology(t float64, flows []Flow, refreshLoc bool) error {
	n := len(c.nodes)
	pos := make([]geo.Point, n)
	for i, d := range c.nodes {
		pos[i] = c.w.Mob.Position(d.ID(), t)
	}
	rangeM := c.Range
	for i, d := range c.nodes {
		top := Topology{T: t, Self: pos[i]}
		for j, other := range c.nodes {
			if i == j || !pos[i].Within(pos[j], rangeM) {
				continue
			}
			top.Nbrs = append(top.Nbrs, Neighbor{
				ID:   int32(other.ID()),
				Pos:  pos[j],
				Addr: other.UDPAddr(),
			})
		}
		if refreshLoc {
			for _, fl := range flows {
				if fl.Src != d.ID() {
					continue
				}
				top.Dests = append(top.Dests, DestUpdate{
					Flow: fl.ID,
					Pos:  c.w.Mob.Position(fl.Dst, t),
				})
			}
		}
		if err := d.ApplyTopology(top); err != nil {
			return err
		}
	}
	return nil
}

// collect scrapes every daemon and folds the fleet into a Summary.
func (c *Coordinator) collect(flows []Flow) (Summary, error) {
	sc := c.w.Scenario
	sum := Summary{
		Protocol: string(sc.Protocol),
		Seed:     sc.Seed,
		N:        len(c.nodes),
		Flows:    flows,
	}
	seen := make(map[uint64]bool)
	for _, d := range c.nodes {
		rep, err := d.Collect()
		if err != nil {
			return Summary{}, err
		}
		addCounters(&sum.Counters, rep.Counters)
		sum.Sends = append(sum.Sends, rep.Sends...)
		for _, dv := range rep.Deliveries {
			// Per-daemon dedup already holds; this guards the
			// impossible cross-daemon duplicate (two nodes claiming
			// one (flow, seq)) from inflating delivery rate.
			k := pairKey(dv.Flow, dv.Seq)
			if seen[k] {
				continue
			}
			seen[k] = true
			sum.Deliveries = append(sum.Deliveries, dv)
		}
	}
	sort.Slice(sum.Sends, func(i, j int) bool {
		if sum.Sends[i].Flow != sum.Sends[j].Flow {
			return sum.Sends[i].Flow < sum.Sends[j].Flow
		}
		return sum.Sends[i].Seq < sum.Sends[j].Seq
	})
	sort.Slice(sum.Deliveries, func(i, j int) bool {
		if sum.Deliveries[i].Flow != sum.Deliveries[j].Flow {
			return sum.Deliveries[i].Flow < sum.Deliveries[j].Flow
		}
		return sum.Deliveries[i].Seq < sum.Deliveries[j].Seq
	})
	sum.Sent = len(sum.Sends)
	sum.Delivered = len(sum.Deliveries)
	if sum.Sent > 0 {
		sum.DeliveryRate = float64(sum.Delivered) / float64(sum.Sent)
	}
	if sum.Delivered > 0 {
		// The simulator's Result takes its latency statistics from a
		// stats.Sample; so does live, so both sides share one definition.
		var lat stats.Sample
		hops := 0
		for _, dv := range sum.Deliveries {
			lat.Add(dv.VTime)
			hops += dv.Hops
		}
		sum.MeanLatency = lat.Mean()
		sum.LatencyP50 = lat.Quantile(0.50)
		sum.LatencyP95 = lat.Quantile(0.95)
		sum.HopsPerPkt = float64(hops) / float64(sum.Delivered)
	}
	return sum, nil
}

func addCounters(dst *Counters, src Counters) {
	dst.RxDatagrams += src.RxDatagrams
	dst.TxDatagrams += src.TxDatagrams
	dst.RxDropsFull += src.RxDropsFull
	dst.TxDropsFull += src.TxDropsFull
	dst.DecodeErrors += src.DecodeErrors
	dst.DroppedRange += src.DroppedRange
	dst.DroppedLoss += src.DroppedLoss
	dst.Dups += src.Dups
	dst.AcksTx += src.AcksTx
	dst.AcksRx += src.AcksRx
	dst.AcksLost += src.AcksLost
	dst.Retries += src.Retries
	dst.SendsLost += src.SendsLost
	dst.Forwarded += src.Forwarded
	dst.LegArrived += src.LegArrived
	dst.LegDropTTL += src.LegDropTTL
	dst.LegDropDeadEnd += src.LegDropDeadEnd
	dst.LegDropLink += src.LegDropLink
	dst.PerimeterEntries += src.PerimeterEntries
	dst.ZoneBroadcasts += src.ZoneBroadcasts
	dst.ZoneRelays += src.ZoneRelays
	dst.Sent += src.Sent
	dst.Delivered += src.Delivered
}
