// Figure generators: one function per evaluation figure (Figs. 10-17) plus
// the remaining-node mobility experiments. Each figure states its grid
// once: it lists every (Scenario, seed) cell point by point, seeds 1..n
// innermost, executes the whole batch through a Runner (internal/campaign's
// Engine, with or without its store and cache), and reduces the results to
// one stats.Sample per grid point, in grid order, then to labeled series in
// the same shape the paper plots. The Figures registry builds each entry's
// Plan and Render from that one grid, so cmd/campaign can run the union of
// every figure's cells as one campaign.

package experiment

import (
	"fmt"

	"alertmanet/internal/analysis"
	"alertmanet/internal/stats"
)

// protosAll is the comparison set of Section 5.
var protosAll = []ProtocolName{ALERT, GPSR, ALARM, AO2P}

// sweepNs is the network-size axis of Figs. 10b, 14a, 15a and 16a.
var sweepNs = []int{50, 100, 150, 200}

// sweepSpeeds is the node-speed axis of Figs. 14b, 15b and 16b.
var sweepSpeeds = []float64{2, 4, 6, 8}

// sweepSeconds is the traffic horizon of the Figs. 11, 14, 15b and 16
// grids, the energy summary and the comparisons.
const sweepSeconds = 40

// remainingDests is how many destination zones a remaining-nodes cell
// follows.
const remainingDests = 5

// The metrics the figures plot.
func meanLatency(r Result) float64   { return r.MeanLatency }
func hopsPerPacket(r Result) float64 { return r.HopsPerPacket } // includes ALARM's ExtraHops
func deliveryRate(r Result) float64  { return r.DeliveryRate }

// seedRuns appends sc at seeds 1..seeds, the innermost axis of every grid.
func seedRuns(cells []Scenario, sc Scenario, seeds int) []Scenario {
	for seed := 1; seed <= seeds; seed++ {
		sc.Seed = int64(seed)
		cells = append(cells, sc)
	}
	return cells
}

// pointSamples reduces a batch to one sample of metric per grid point, in
// grid order: point i is the seeds results from i*seeds on. A sample's
// Mean sums in seed order, then divides.
func pointSamples(results []Result, seeds int, metric func(Result) float64) []stats.Sample {
	samples := make([]stats.Sample, len(results)/seeds)
	for i, res := range results {
		samples[i/seeds].Add(metric(res))
	}
	return samples
}

// batch is what one figure executes: its simulation cells and the
// reduction of their results, which arrive aligned with the cells.
type batch[T any] struct {
	cells  []Scenario
	reduce func(results []Result) (T, error)
}

// figureBatch is a batch that reduces to a figure's series.
type figureBatch = batch[[]analysis.Series]

// run executes the cells through r and reduces their results.
func (b batch[T]) run(r Runner) (T, error) {
	results, err := r.RunBatch(b.cells)
	if err != nil {
		var zero T
		return zero, err
	}
	return b.reduce(results)
}

// grid lists a figure's cells point by point. Each point is one scenario
// at seeds 1..seeds, with the label of the series it belongs to and the x
// it is plotted at; consecutive points that share a label form one series.
type grid struct {
	seeds  int
	cells  []Scenario
	labels []string
	xs     []float64
}

// add appends one point.
func (g *grid) add(label string, x float64, sc Scenario) {
	g.cells = seedRuns(g.cells, sc, g.seeds)
	g.labels = append(g.labels, label)
	g.xs = append(g.xs, x)
}

// series reduces the grid's results to its series of metric's per-point
// means, each with its 95% confidence half-width as Err when withErr.
func (g *grid) series(results []Result, metric func(Result) float64, withErr bool) []analysis.Series {
	var out []analysis.Series
	for i, s := range pointSamples(results, g.seeds, metric) {
		if i == 0 || g.labels[i] != g.labels[i-1] {
			out = append(out, analysis.Series{Label: g.labels[i]})
		}
		c := &out[len(out)-1]
		c.X = append(c.X, g.xs[i])
		c.Y = append(c.Y, s.Mean())
		if withErr {
			c.Err = append(c.Err, s.CI())
		}
	}
	return out
}

// means is the grid's batch reduced by series.
func (g *grid) means(metric func(Result) float64, withErr bool) figureBatch {
	return figureBatch{g.cells, func(results []Result) ([]analysis.Series, error) {
		return g.series(results, metric, withErr), nil
	}}
}

// participantScenario is the Fig. 10 cell: one S-D pair bursting `packets`
// packets at a low interval so path churn stays small.
func participantScenario(p ProtocolName, n, packets int) Scenario {
	sc := DefaultScenario()
	sc.Protocol = p
	sc.N = n
	sc.Pairs = 1
	sc.Packets = packets
	sc.Interval = 0.5 // keep path churn low over the burst
	sc.Duration = float64(packets)*sc.Interval + 5
	return sc
}

// shortRun reports the first cell that recorded fewer packets than the
// figure averages over. The pre-campaign loops papered over these with a
// counts[i] > 0 guard, silently skewing the mean toward the long runs; a
// campaign treats the cell as broken and says which one.
func shortRun(name string, cells []Scenario, results []Result, packets int) error {
	for i, r := range results {
		if len(r.Cumulative) < packets {
			sc := cells[i]
			return fmt.Errorf("%s: experiment: short-run cell %s seed %d (scenario %.12s): recorded %d packets, figure needs %d — raise Duration or lower the packet count",
				name, sc.Protocol, sc.Seed, sc.Hash(), len(r.Cumulative), packets)
		}
	}
	return nil
}

// Fig10a reproduces Fig. 10a: cumulative actual participating nodes versus
// packets transmitted, for ALERT and GPSR at 100 and 200 nodes (ALARM and
// AO2P follow GPSR's shortest-path behaviour, as the paper notes). One S-D
// pair sends `packets` packets; curves are averaged over seeds.
func Fig10a(r Runner, packets, seeds int) ([]analysis.Series, error) {
	return fig10a(packets, seeds).run(r)
}

func fig10a(packets, seeds int) figureBatch {
	g := &grid{seeds: seeds}
	for _, n := range []int{100, 200} {
		for _, p := range []ProtocolName{ALERT, GPSR} {
			g.add(fmt.Sprintf("%s N=%d", p, n), 0, participantScenario(p, n, packets))
		}
	}
	return figureBatch{g.cells, func(results []Result) ([]analysis.Series, error) {
		if err := shortRun("fig10a", g.cells, results, packets); err != nil {
			return nil, err
		}
		out := make([]analysis.Series, len(g.labels))
		for j, label := range g.labels {
			out[j].Label = label
		}
		for i := 0; i < packets; i++ {
			cum := func(res Result) float64 { return float64(res.Cumulative[i]) }
			for j, s := range pointSamples(results, seeds, cum) {
				out[j].X = append(out[j].X, float64(i+1))
				out[j].Y = append(out[j].Y, s.Mean())
			}
		}
		return out, nil
	}}
}

// Fig10b reproduces Fig. 10b: actual participating nodes after `packets`
// packets, versus the total number of nodes, ALERT versus GPSR.
func Fig10b(r Runner, packets, seeds int) ([]analysis.Series, error) {
	return fig10b(packets, seeds).run(r)
}

func fig10b(packets, seeds int) figureBatch {
	g := &grid{seeds: seeds}
	for _, p := range []ProtocolName{ALERT, GPSR} {
		for _, n := range sweepNs {
			g.add(string(p), float64(n), participantScenario(p, n, packets))
		}
	}
	return figureBatch{g.cells, func(results []Result) ([]analysis.Series, error) {
		if err := shortRun("fig10b", g.cells, results, packets); err != nil {
			return nil, err
		}
		return g.series(results, func(res Result) float64 { return float64(res.Participants) }, false), nil
	}}
}

// Fig11 reproduces Fig. 11: the simulated number of random forwarders
// versus the number of partitions H (to compare with the analytical
// Fig. 7b line).
func Fig11(r Runner, hMax, seeds int) (analysis.Series, error) {
	s, err := fig11(hMax, seeds).run(r)
	if err != nil {
		return analysis.Series{}, err
	}
	return s[0], nil
}

func fig11(hMax, seeds int) figureBatch {
	g := &grid{seeds: seeds}
	for h := 1; h <= hMax; h++ {
		sc := DefaultScenario()
		sc.Protocol = ALERT
		sc.Alert.H = h
		sc.Duration = sweepSeconds
		g.add("ALERT mean RFs", float64(h), sc)
	}
	return g.means(func(res Result) float64 { return res.MeanRFs }, false)
}

// remainingCells enumerates the per-seed mobility-only cells behind
// RemainingNodesSim; field and group parameters come from the paper
// defaults, as before the campaign rewire.
func remainingCells(n, h int, speed float64, mob MobilityName,
	times []float64, dests, seeds int) []RemainingSpec {
	sc := DefaultScenario()
	cells := make([]RemainingSpec, 0, seeds)
	for seed := 1; seed <= seeds; seed++ {
		cells = append(cells, RemainingSpec{
			Seed: int64(seed), N: n, H: h, Speed: speed, Mobility: mob,
			Field: sc.Field, Groups: sc.Groups, GroupRange: sc.GroupRange,
			Times: times, Dests: dests,
		})
	}
	return cells
}

// RemainingNodesSim measures, by pure mobility simulation, how many of the
// nodes initially inside a destination zone are still inside after each
// sample time — the simulated counterpart of Equation (15). Zones are
// centered on `dests` random node positions per seed. Per-seed sums and
// zone counts are exact integer-valued quantities, so pooling them across
// seeds reproduces the pre-campaign single-loop average bit-for-bit.
func RemainingNodesSim(r Runner, n, h int, speed float64, mob MobilityName,
	times []float64, dests, seeds int) ([]float64, error) {
	rrs, err := r.RemainingBatch(remainingCells(n, h, speed, mob, times, dests, seeds))
	if err != nil {
		return nil, err
	}
	return poolRemaining(rrs, len(times)), nil
}

// poolRemaining averages remaining-node sums over every zone the cells
// counted.
func poolRemaining(rrs []RemainingResult, ntimes int) []float64 {
	sums := make([]float64, ntimes)
	count := 0
	for _, rr := range rrs {
		count += rr.Count
		for i, v := range rr.Sums {
			sums[i] += v
		}
	}
	out := make([]float64, ntimes)
	if count == 0 {
		return out
	}
	for i := range sums {
		out[i] = sums[i] / float64(count)
	}
	return out
}

// remainingGrid is a remaining-nodes figure's cells: curves of seeds
// consecutive cells (remainingCells), each pooled into one series labelled
// from its first cell.
type remainingGrid struct {
	seeds int
	cells []RemainingSpec
	label func(RemainingSpec) string
}

// run executes the cells through r as one batch and pools each curve.
func (g remainingGrid) run(r Runner) ([]analysis.Series, error) {
	rrs, err := r.RemainingBatch(g.cells)
	if err != nil {
		return nil, err
	}
	var out []analysis.Series
	for i := 0; i < len(g.cells); i += g.seeds {
		c := g.cells[i]
		out = append(out, analysis.Series{Label: g.label(c), X: c.Times,
			Y: poolRemaining(rrs[i:i+g.seeds], len(c.Times))})
	}
	return out, nil
}

// Fig12 reproduces Fig. 12: remaining nodes in the destination zone over
// time by density.
func Fig12(r Runner, times []float64, seeds int) ([]analysis.Series, error) {
	return fig12(times, seeds).run(r)
}

// fig12 is Fig. 12's grid: densities 100, 150 and 200 nodes at H = 5,
// v = 2 m/s.
func fig12(times []float64, seeds int) remainingGrid {
	g := remainingGrid{seeds: seeds, label: func(c RemainingSpec) string { return fmt.Sprintf("N=%d", c.N) }}
	for _, n := range []int{100, 150, 200} {
		g.cells = append(g.cells, remainingCells(n, 5, 2, RandomWaypoint, times, remainingDests, seeds)...)
	}
	return g
}

// Fig13a reproduces Fig. 13a: remaining nodes over time by H and speed.
func Fig13a(r Runner, times []float64, seeds int) ([]analysis.Series, error) {
	return fig13a(times, seeds).run(r)
}

// fig13a is Fig. 13a's grid: H in {4, 5} by node speeds 0, 2 and 4 m/s,
// at N = 200.
func fig13a(times []float64, seeds int) remainingGrid {
	g := remainingGrid{seeds: seeds, label: func(c RemainingSpec) string { return fmt.Sprintf("H=%d v=%.0f", c.H, c.Speed) }}
	for _, h := range []int{4, 5} {
		for _, v := range []float64{0, 2, 4} {
			g.cells = append(g.cells, remainingCells(200, h, v, RandomWaypoint, times, remainingDests, seeds)...)
		}
	}
	return g
}

// Fig13b reproduces Fig. 13b: the node density required to keep `target`
// nodes in the destination zone after 10 s, versus node speed. Found by
// scanning density upward in steps of 25 nodes; the scan adapts to the
// results, so its cells cannot be enumerated up front (a campaign caches
// each probed density instead).
func Fig13b(r Runner, target float64, speeds []float64, seeds int) (analysis.Series, error) {
	s := analysis.Series{Label: fmt.Sprintf("density for %.0f remaining @10s", target)}
	times := []float64{10}
	for _, v := range speeds {
		required := 0.0
		for n := 25; n <= 800; n += 25 {
			ys, err := RemainingNodesSim(r, n, 5, v, RandomWaypoint, times, remainingDests, seeds)
			if err != nil {
				return analysis.Series{}, err
			}
			if ys[0] >= target {
				required = float64(n)
				break
			}
		}
		s.X = append(s.X, v)
		s.Y = append(s.Y, required)
	}
	return s, nil
}

// nodeSweep is the four protocols over sweepNs: protocol, then N. A
// positive duration replaces the default horizon.
func nodeSweep(seeds int, duration float64) *grid {
	g := &grid{seeds: seeds}
	for _, p := range protosAll {
		for _, n := range sweepNs {
			sc := DefaultScenario()
			sc.Protocol = p
			sc.N = n
			if duration > 0 {
				sc.Duration = duration
			}
			g.add(string(p), float64(n), sc)
		}
	}
	return g
}

// speedScenario is the Figs. 14b/15b/16b cell: one protocol at one speed,
// with or without destination updates, at a 40 s horizon.
func speedScenario(p ProtocolName, v float64, upd bool) Scenario {
	sc := DefaultScenario()
	sc.Protocol = p
	sc.Speed = v
	sc.LocUpdates = upd
	sc.Duration = sweepSeconds
	return sc
}

// updSweep is ALERT and GPSR, each with and without destination updates,
// over sweepSpeeds. The Figs. 14b, 15b and 16b share it, so a campaign
// runs it once.
func updSweep(seeds int) *grid {
	g := &grid{seeds: seeds}
	for _, p := range []ProtocolName{ALERT, GPSR} {
		for _, upd := range []bool{true, false} {
			for _, v := range sweepSpeeds {
				g.add(fmt.Sprintf("%s upd=%v", p, upd), v, speedScenario(p, v, upd))
			}
		}
	}
	return g
}

// Fig14a reproduces Fig. 14a: latency per packet versus the number of
// nodes, for all four protocols.
func Fig14a(r Runner, seeds int) ([]analysis.Series, error) { return fig14a(seeds).run(r) }

func fig14a(seeds int) figureBatch { return nodeSweep(seeds, sweepSeconds).means(meanLatency, true) }

// Fig14b reproduces Fig. 14b: latency per packet versus node speed, for
// ALERT and GPSR both with and without destination update (ALARM and AO2P
// ride the same update setting as "with").
func Fig14b(r Runner, seeds int) ([]analysis.Series, error) { return fig14b(seeds).run(r) }

func fig14b(seeds int) figureBatch {
	g := updSweep(seeds)
	for _, p := range []ProtocolName{ALARM, AO2P} {
		for _, v := range sweepSpeeds {
			g.add(string(p), v, speedScenario(p, v, true))
		}
	}
	return g.means(meanLatency, true)
}

// Fig15a reproduces Fig. 15a: hops per packet versus number of nodes for
// the four protocols, plus the "ALARM (include id dissemination hops)"
// series.
func Fig15a(r Runner, seeds int) ([]analysis.Series, error) { return fig15a(seeds).run(r) }

// fig15a is the network-size sweep at the default horizon, then ALARM
// without its id dissemination at each size: a routing-only contrast
// (HopsPerPacket includes the dissemination; this subtracts it back out).
func fig15a(seeds int) figureBatch {
	g := nodeSweep(seeds, 0)
	for i, label := range g.labels {
		if label == string(ALARM) {
			g.labels[i] = "alarm (include id dissemination hops)"
		}
	}
	for _, n := range sweepNs {
		sc := DefaultScenario()
		sc.Protocol = ALARM
		sc.N = n
		sc.Alarm.DisseminationPeriod = 0 // no overhead counted
		g.add("alarm (routing only)", float64(n), sc)
	}
	return figureBatch{g.cells, func(results []Result) ([]analysis.Series, error) {
		out := g.series(results, hopsPerPacket, true)
		out[len(out)-1].Err = nil // the routing-only contrast draws no interval
		return out, nil
	}}
}

// Fig15b reproduces Fig. 15b: hops per packet versus node speed, with and
// without destination update for ALERT and GPSR.
func Fig15b(r Runner, seeds int) ([]analysis.Series, error) { return fig15b(seeds).run(r) }

func fig15b(seeds int) figureBatch { return updSweep(seeds).means(hopsPerPacket, true) }

// Fig16a reproduces Fig. 16a: delivery rate versus number of nodes.
func Fig16a(r Runner, seeds int) ([]analysis.Series, error) { return fig16a(seeds).run(r) }

func fig16a(seeds int) figureBatch { return nodeSweep(seeds, sweepSeconds).means(deliveryRate, true) }

// Fig16b reproduces Fig. 16b: delivery rate versus node speed, with and
// without destination update, for ALERT and GPSR.
func Fig16b(r Runner, seeds int) ([]analysis.Series, error) { return fig16b(seeds).run(r) }

func fig16b(seeds int) figureBatch { return updSweep(seeds).means(deliveryRate, true) }

// fig17Configs are the Fig. 17 movement-model variants.
var fig17Configs = []struct {
	label      string
	mob        MobilityName
	groups     int
	groupRange float64
}{
	{"random waypoint", RandomWaypoint, 0, 0},
	{"group (10 groups, 150 m)", GroupMobility, 10, 150},
	{"group (5 groups, 200 m)", GroupMobility, 5, 200},
}

// Fig17 reproduces Fig. 17: ALERT's delay under the random waypoint model
// versus the group mobility model with 10 groups/150 m and 5 groups/200 m.
func Fig17(r Runner, seeds int) ([]analysis.Series, error) { return fig17(seeds).run(r) }

func fig17(seeds int) figureBatch {
	g := &grid{seeds: seeds}
	for _, c := range fig17Configs {
		sc := DefaultScenario()
		sc.Protocol = ALERT
		sc.Mobility = c.mob
		sc.Groups = c.groups
		sc.GroupRange = c.groupRange
		sc.Duration = 60
		g.add(c.label, 0, sc)
	}
	return g.means(meanLatency, false)
}

// protocolGrid is one point per protocol on the default scenario. A
// positive duration replaces the default horizon.
func protocolGrid(protocols []ProtocolName, seeds int, duration float64) *grid {
	g := &grid{seeds: seeds}
	for _, p := range protocols {
		sc := DefaultScenario()
		sc.Protocol = p
		if duration > 0 {
			sc.Duration = duration
		}
		g.add(string(p), 0, sc)
	}
	return g
}

// EnergySummary returns each protocol's mean energy per delivered packet
// (joules) over seeds as one-point series — the `energy` registry entry.
func EnergySummary(r Runner, seeds int) ([]analysis.Series, error) { return energy(seeds).run(r) }

// energy is the energy summary over each protocol of protosAll at the
// sweepSeconds horizon: the grid the comparisons share.
func energy(seeds int) figureBatch {
	return protocolGrid(protosAll, seeds, sweepSeconds).means(func(res Result) float64 { return res.EnergyPerDelivered }, false)
}

// Comparison is a pairwise protocol comparison on one metric with Welch's
// t-test significance over independent seeded runs.
type Comparison struct {
	Metric string
	A, B   ProtocolName
	MeanA  float64
	MeanB  float64
	Welch  stats.WelchResult
}

// CompareProtocols runs every protocol `seeds` times on the default
// scenario and tests each pair's difference on the named metrics: the
// paper's orderings stated with statistical confidence rather than
// eyeballed means.
func CompareProtocols(r Runner, protocols []ProtocolName, seeds int, duration float64) ([]Comparison, error) {
	return compare(protocols, seeds, duration).run(r)
}

func compare(protocols []ProtocolName, seeds int, duration float64) batch[[]Comparison] {
	metrics := []struct {
		name string
		get  func(Result) float64
	}{
		{"latency", meanLatency},
		{"hops/packet", hopsPerPacket},
		{"delivery", deliveryRate},
		{"route-similarity", func(res Result) float64 { return res.RouteJaccard }},
		{"energy/delivered", func(res Result) float64 { return res.EnergyPerDelivered }},
	}
	g := protocolGrid(protocols, seeds, duration)
	return batch[[]Comparison]{g.cells, func(results []Result) ([]Comparison, error) {
		var out []Comparison
		for _, m := range metrics {
			samples := pointSamples(results, seeds, m.get)
			for i := range protocols {
				for j := i + 1; j < len(protocols); j++ {
					sa, sb := &samples[i], &samples[j]
					out = append(out, Comparison{
						Metric: m.name,
						A:      protocols[i], B: protocols[j],
						MeanA: sa.Mean(), MeanB: sb.Mean(),
						Welch: stats.WelchT(sa, sb),
					})
				}
			}
		}
		return out, nil
	}}
}
