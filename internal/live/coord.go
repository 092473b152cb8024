// The coordinator: the piece that turns a daemon fleet into the paper's
// field. At each beacon instant it pushes every daemon what its World's
// medium and location service hold: the daemon's neighbor table and beacon
// position (out-of-range peers simply never appear in a table, so the
// loopback fabric behaves like the radio medium) and the location entries
// of the flows it sources. It launches the simulator's own flow schedule
// (experiment's CBRFlows: same pairs, same offsets, same packet counts),
// and finally scrapes every daemon's measurements into a fleet Summary.
//
// Wall-clock enters only as pacing: emulated time t maps to start +
// t*timescale. Every measured quantity rides the frames' virtual-time
// accumulator instead, so the summary is unchanged (statistically) by how
// hard the clock is compressed.

package live

import (
	"fmt"
	"sort"
	"time"

	"alertmanet/internal/experiment"
	"alertmanet/internal/medium"
	"alertmanet/internal/stats"
)

// Flow is one coordinator-run flow: one sim S-D pair and its CBR schedule.
type Flow = experiment.Flow

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
	HopsPerPkt   float64      `json:"hops_per_packet"` // over delivered packets
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
	}
}

// DeriveFlows is the world's CBR schedule, experiment's CBRFlows: the fleet
// sends exactly the simulator's packets.
func DeriveFlows(w *experiment.World) ([]Flow, []byte, error) { return w.CBRFlows() }

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
	if err := c.push(0, flows); err != nil {
		return Summary{}, err
	}
	for _, fl := range flows {
		src, ok := c.byID[fl.Src]
		dst, okD := c.byID[fl.Dst]
		if !ok || !okD {
			return Summary{}, fmt.Errorf("live: flow %d references unknown node %d->%d", fl.ID, fl.Src, fl.Dst)
		}
		entry := c.w.Loc.Lookup(medium.NodeID(fl.Dst))
		spec := FlowSpec{
			Flow: fl.ID,
			Dest: DestEntry{
				ID:        fl.Dst,
				Pos:       entry.Pos,
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

	// March emulated time one beacon at a time.
	hello := c.w.Med.Params().HelloInterval
	horizon := sc.Duration + sc.DrainTime
	start := time.Now()
	for k := 1; float64(k)*hello <= horizon; k++ {
		target := time.Duration(float64(k) * hello * c.Timescale * float64(time.Second))
		if d := target - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if err := c.push(k, flows); err != nil {
			return Summary{}, err
		}
	}
	time.Sleep(c.Slack)
	return c.collect(flows)
}

// push runs the world's engine to beacon instant k·HelloInterval (hello
// tick k) and pushes every daemon its medium neighbor table, its beacon
// position and the location entries of the flows it sources. The fleet
// switches at once, as the simulator's field does: each daemon holds its
// loop after its install until all have installed, since two daemons on
// different snapshots can hand a packet back and forth until its hop
// budget runs out.
func (c *Coordinator) push(k int, flows []Flow) error {
	if err := c.w.Eng.RunUntil(float64(k) * c.w.Med.Params().HelloInterval); err != nil {
		return err
	}
	release := make(chan struct{})
	defer close(release)
	var nbrs []medium.Neighbor
	for _, d := range c.nodes {
		id := medium.NodeID(d.ID())
		nbrs = c.w.Med.NeighborsInto(id, nbrs)
		top := Topology{Self: c.w.Med.BeaconPosition(id), Nbrs: make([]Neighbor, 0, len(nbrs))}
		for _, nb := range nbrs {
			if other, ok := c.byID[int(nb.ID)]; ok {
				top.Nbrs = append(top.Nbrs, Neighbor{ID: int32(nb.ID), Pos: nb.Pos, Addr: other.UDPAddr()})
			}
		}
		for _, fl := range flows {
			if fl.Src == d.ID() {
				entry := c.w.Loc.Lookup(medium.NodeID(fl.Dst))
				top.Dests = append(top.Dests, DestUpdate{Flow: fl.ID, Pos: entry.Pos})
			}
		}
		if err := d.call(func() { d.install(top) }, release); err != nil {
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
