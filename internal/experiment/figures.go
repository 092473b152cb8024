// Figure generators: one function per evaluation figure (Figs. 10-17) plus
// the remaining-node mobility experiments. Each figure enumerates every
// (Scenario, seed) cell it needs, executes the whole batch through a Runner
// (internal/campaign's Engine, with or without its store and cache), and
// reduces the results into labeled series in the same shape the paper
// plots. The Figures registry exposes the plan/render split so
// cmd/campaign can run the union of every figure's cells as one campaign.

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

// sweepSeconds is the traffic horizon of the Figs. 11, 14, 15b and 16
// grids, the energy summary and the comparisons.
const sweepSeconds = 40

// remainingDests is how many destination zones a remaining-nodes cell
// follows.
const remainingDests = 5

// participantScenario is the Fig. 10 cell: one S-D pair bursting `packets`
// packets at a low interval so path churn stays small.
func participantScenario(p ProtocolName, n, packets int, seed int64) Scenario {
	sc := DefaultScenario()
	sc.Seed = seed
	sc.Protocol = p
	sc.N = n
	sc.Pairs = 1
	sc.Packets = packets
	sc.Interval = 0.5 // keep path churn low over the burst
	sc.Duration = float64(packets)*sc.Interval + 5
	return sc
}

// shortRun reports a cell that recorded fewer packets than the figure
// averages over. The pre-campaign loops papered over these with a
// counts[i] > 0 guard, silently skewing the mean toward the long runs; a
// campaign treats the cell as broken and says which one.
func shortRun(sc Scenario, r Result, packets int) error {
	if len(r.Cumulative) >= packets {
		return nil
	}
	return fmt.Errorf("experiment: short-run cell %s seed %d (scenario %.12s): recorded %d packets, figure needs %d — raise Duration or lower the packet count",
		sc.Protocol, sc.Seed, sc.Hash(), len(r.Cumulative), packets)
}

func fig10aCells(packets, seeds int) []Scenario {
	var cells []Scenario
	for _, n := range []int{100, 200} {
		for _, p := range []ProtocolName{ALERT, GPSR} {
			for seed := 1; seed <= seeds; seed++ {
				cells = append(cells, participantScenario(p, n, packets, int64(seed)))
			}
		}
	}
	return cells
}

// Fig10a reproduces Fig. 10a: cumulative actual participating nodes versus
// packets transmitted, for ALERT and GPSR at 100 and 200 nodes (ALARM and
// AO2P follow GPSR's shortest-path behaviour, as the paper notes). One S-D
// pair sends `packets` packets; curves are averaged over seeds.
func Fig10a(r Runner, packets, seeds int) ([]analysis.Series, error) {
	cells := fig10aCells(packets, seeds)
	results, err := r.RunBatch(cells)
	if err != nil {
		return nil, err
	}
	var out []analysis.Series
	idx := 0
	for _, n := range []int{100, 200} {
		for _, p := range []ProtocolName{ALERT, GPSR} {
			sums := make([]float64, packets)
			for seed := 1; seed <= seeds; seed++ {
				res := results[idx]
				if err := shortRun(cells[idx], res, packets); err != nil {
					return nil, fmt.Errorf("fig10a: %w", err)
				}
				idx++
				for i := 0; i < packets; i++ {
					sums[i] += float64(res.Cumulative[i])
				}
			}
			s := analysis.Series{Label: fmt.Sprintf("%s N=%d", p, n)}
			for i := 0; i < packets; i++ {
				s.X = append(s.X, float64(i+1))
				s.Y = append(s.Y, sums[i]/float64(seeds))
			}
			out = append(out, s)
		}
	}
	return out, nil
}

func fig10bCells(packets, seeds int) []Scenario {
	var cells []Scenario
	for _, p := range []ProtocolName{ALERT, GPSR} {
		for _, n := range sweepNs {
			for seed := 1; seed <= seeds; seed++ {
				cells = append(cells, participantScenario(p, n, packets, int64(seed)))
			}
		}
	}
	return cells
}

// Fig10b reproduces Fig. 10b: actual participating nodes after `packets`
// packets, versus the total number of nodes, ALERT versus GPSR.
func Fig10b(r Runner, packets, seeds int) ([]analysis.Series, error) {
	cells := fig10bCells(packets, seeds)
	results, err := r.RunBatch(cells)
	if err != nil {
		return nil, err
	}
	var out []analysis.Series
	idx := 0
	for _, p := range []ProtocolName{ALERT, GPSR} {
		s := analysis.Series{Label: string(p)}
		for _, n := range sweepNs {
			var sample stats.Sample
			for seed := 1; seed <= seeds; seed++ {
				res := results[idx]
				if err := shortRun(cells[idx], res, packets); err != nil {
					return nil, fmt.Errorf("fig10b: %w", err)
				}
				idx++
				sample.Add(float64(res.Participants))
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, sample.Mean())
		}
		out = append(out, s)
	}
	return out, nil
}

func fig11Cells(hMax, seeds int) []Scenario {
	var cells []Scenario
	for h := 1; h <= hMax; h++ {
		for seed := 1; seed <= seeds; seed++ {
			sc := DefaultScenario()
			sc.Seed = int64(seed)
			sc.Protocol = ALERT
			sc.Alert.H = h
			sc.Duration = sweepSeconds
			cells = append(cells, sc)
		}
	}
	return cells
}

// Fig11 reproduces Fig. 11: the simulated number of random forwarders
// versus the number of partitions H (to compare with the analytical
// Fig. 7b line).
func Fig11(r Runner, hMax, seeds int) (analysis.Series, error) {
	results, err := r.RunBatch(fig11Cells(hMax, seeds))
	if err != nil {
		return analysis.Series{}, err
	}
	s := analysis.Series{Label: "ALERT mean RFs"}
	idx := 0
	for h := 1; h <= hMax; h++ {
		var sample stats.Sample
		for seed := 1; seed <= seeds; seed++ {
			sample.Add(results[idx].MeanRFs)
			idx++
		}
		s.X = append(s.X, float64(h))
		s.Y = append(s.Y, sample.Mean())
	}
	return s, nil
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

// remainingSeries executes a remaining-nodes grid as one batch and pools
// each run of seeds consecutive cells into one curve, labelled from its
// first cell.
func remainingSeries(r Runner, cells []RemainingSpec, seeds int,
	label func(RemainingSpec) string) ([]analysis.Series, error) {
	rrs, err := r.RemainingBatch(cells)
	if err != nil {
		return nil, err
	}
	var out []analysis.Series
	for i := 0; i < len(cells); i += seeds {
		c := cells[i]
		out = append(out, analysis.Series{Label: label(c), X: c.Times,
			Y: poolRemaining(rrs[i:i+seeds], len(c.Times))})
	}
	return out, nil
}

// fig12Cells is Fig. 12's grid: densities 100, 150 and 200 nodes at
// H = 5, v = 2 m/s.
func fig12Cells(times []float64, seeds int) []RemainingSpec {
	var cells []RemainingSpec
	for _, n := range []int{100, 150, 200} {
		cells = append(cells, remainingCells(n, 5, 2, RandomWaypoint, times, remainingDests, seeds)...)
	}
	return cells
}

// Fig12 reproduces Fig. 12: remaining nodes in the destination zone over
// time by density.
func Fig12(r Runner, times []float64, seeds int) ([]analysis.Series, error) {
	return remainingSeries(r, fig12Cells(times, seeds), seeds,
		func(c RemainingSpec) string { return fmt.Sprintf("N=%d", c.N) })
}

// fig13aCells is Fig. 13a's grid: H in {4, 5} by node speeds 0, 2 and
// 4 m/s, at N = 200.
func fig13aCells(times []float64, seeds int) []RemainingSpec {
	var cells []RemainingSpec
	for _, h := range []int{4, 5} {
		for _, v := range []float64{0, 2, 4} {
			cells = append(cells, remainingCells(200, h, v, RandomWaypoint, times, remainingDests, seeds)...)
		}
	}
	return cells
}

// Fig13a reproduces Fig. 13a: remaining nodes over time by H and speed.
func Fig13a(r Runner, times []float64, seeds int) ([]analysis.Series, error) {
	return remainingSeries(r, fig13aCells(times, seeds), seeds,
		func(c RemainingSpec) string { return fmt.Sprintf("H=%d v=%.0f", c.H, c.Speed) })
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

// nodeSweepCells enumerates the four protocols over sweepNs: protocol
// (outer), N, then seed, nodeSweepSeries's reduction order. A positive
// duration replaces the default horizon.
func nodeSweepCells(seeds int, duration float64) []Scenario {
	var cells []Scenario
	for _, p := range protosAll {
		for _, n := range sweepNs {
			for seed := 1; seed <= seeds; seed++ {
				sc := DefaultScenario()
				sc.Protocol = p
				sc.N = n
				if duration > 0 {
					sc.Duration = duration
				}
				sc.Seed = int64(seed)
				cells = append(cells, sc)
			}
		}
	}
	return cells
}

// nodeSweepSeries reduces a nodeSweepCells batch to one series per
// protocol of one metric against N.
func nodeSweepSeries(results []Result, seeds int, metric func(Result) float64) []analysis.Series {
	var out []analysis.Series
	idx := 0
	for _, p := range protosAll {
		s := analysis.Series{Label: string(p)}
		for _, n := range sweepNs {
			var sample stats.Sample
			for seed := 1; seed <= seeds; seed++ {
				sample.Add(metric(results[idx]))
				idx++
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, sample.Mean())
			s.Err = append(s.Err, sample.CI())
		}
		out = append(out, s)
	}
	return out
}

// sizeSweepCells is the Figs. 14a and 16a grid: the network-size sweep at
// the sweepSeconds horizon.
func sizeSweepCells(seeds int) []Scenario { return nodeSweepCells(seeds, sweepSeconds) }

// Fig14a reproduces Fig. 14a: latency per packet versus the number of
// nodes, for all four protocols.
func Fig14a(r Runner, seeds int) ([]analysis.Series, error) {
	results, err := r.RunBatch(sizeSweepCells(seeds))
	if err != nil {
		return nil, err
	}
	return nodeSweepSeries(results, seeds, func(res Result) float64 { return res.MeanLatency }), nil
}

// speedUpdCell is the Figs. 14b/15b/16b cell: one protocol at one speed,
// with or without destination updates, at a 40 s horizon. The three figures
// share the exact same grid, so a campaign runs it once.
func speedUpdCell(p ProtocolName, v float64, upd bool, seed int64) Scenario {
	sc := DefaultScenario()
	sc.Protocol = p
	sc.Speed = v
	sc.LocUpdates = upd
	sc.Duration = sweepSeconds
	sc.Seed = seed
	return sc
}

var sweepSpeeds = []float64{2, 4, 6, 8}

// updSweepCells is the ALERT/GPSR × {upd, no-upd} × speed × seed grid.
func updSweepCells(seeds int) []Scenario {
	var cells []Scenario
	for _, p := range []ProtocolName{ALERT, GPSR} {
		for _, upd := range []bool{true, false} {
			for _, v := range sweepSpeeds {
				for seed := 1; seed <= seeds; seed++ {
					cells = append(cells, speedUpdCell(p, v, upd, int64(seed)))
				}
			}
		}
	}
	return cells
}

// updSweepReduce walks an updSweepCells result batch in enumeration order,
// extracting one metric into per-(protocol, upd) series.
func updSweepReduce(results []Result, seeds int, metric func(Result) float64) []analysis.Series {
	var out []analysis.Series
	idx := 0
	for _, p := range []ProtocolName{ALERT, GPSR} {
		for _, upd := range []bool{true, false} {
			s := analysis.Series{Label: fmt.Sprintf("%s upd=%v", p, upd)}
			for _, v := range sweepSpeeds {
				var sample stats.Sample
				for seed := 1; seed <= seeds; seed++ {
					sample.Add(metric(results[idx]))
					idx++
				}
				s.X = append(s.X, v)
				s.Y = append(s.Y, sample.Mean())
				s.Err = append(s.Err, sample.CI())
			}
			out = append(out, s)
		}
	}
	return out
}

func fig14bTailCells(seeds int) []Scenario {
	var cells []Scenario
	for _, p := range []ProtocolName{ALARM, AO2P} {
		for _, v := range sweepSpeeds {
			for seed := 1; seed <= seeds; seed++ {
				cells = append(cells, speedUpdCell(p, v, true, int64(seed)))
			}
		}
	}
	return cells
}

// Fig14b reproduces Fig. 14b: latency per packet versus node speed, for
// ALERT and GPSR both with and without destination update (ALARM and AO2P
// ride the same update setting as "with").
func Fig14b(r Runner, seeds int) ([]analysis.Series, error) {
	head, err := r.RunBatch(updSweepCells(seeds))
	if err != nil {
		return nil, err
	}
	out := updSweepReduce(head, seeds, func(res Result) float64 { return res.MeanLatency })
	tail, err := r.RunBatch(fig14bTailCells(seeds))
	if err != nil {
		return nil, err
	}
	idx := 0
	for _, p := range []ProtocolName{ALARM, AO2P} {
		s := analysis.Series{Label: string(p)}
		for _, v := range sweepSpeeds {
			var sample stats.Sample
			for seed := 1; seed <= seeds; seed++ {
				sample.Add(tail[idx].MeanLatency)
				idx++
			}
			s.X = append(s.X, v)
			s.Y = append(s.Y, sample.Mean())
			s.Err = append(s.Err, sample.CI())
		}
		out = append(out, s)
	}
	return out, nil
}

// fig15aCells is Fig. 15a's grid: the network-size sweep at the default
// horizon, then ALARM without its id dissemination at each size.
func fig15aCells(seeds int) []Scenario {
	cells := nodeSweepCells(seeds, 0)
	for _, n := range sweepNs {
		for seed := 1; seed <= seeds; seed++ {
			sc := DefaultScenario()
			sc.Seed = int64(seed)
			sc.Protocol = ALARM
			sc.N = n
			sc.Alarm.DisseminationPeriod = 0 // no overhead counted
			cells = append(cells, sc)
		}
	}
	return cells
}

// Fig15a reproduces Fig. 15a: hops per packet versus number of nodes for
// the four protocols, plus the "ALARM (include id dissemination hops)"
// series.
func Fig15a(r Runner, seeds int) ([]analysis.Series, error) {
	results, err := r.RunBatch(fig15aCells(seeds))
	if err != nil {
		return nil, err
	}
	sweep := len(protosAll) * len(sweepNs) * seeds
	out := nodeSweepSeries(results[:sweep], seeds, func(res Result) float64 {
		return res.HopsPerPacket // includes ExtraHops for ALARM
	})
	// Add a routing-only ALARM series for contrast (dissemination is
	// what HopsPerPacket already includes; subtract it back out).
	extra := results[sweep:]
	s := analysis.Series{Label: "alarm (routing only)"}
	idx := 0
	for _, n := range sweepNs {
		var sample stats.Sample
		for seed := 1; seed <= seeds; seed++ {
			sample.Add(extra[idx].HopsPerPacket)
			idx++
		}
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, sample.Mean())
	}
	// Relabel the swept ALARM series to make the dissemination explicit.
	for i := range out {
		if out[i].Label == string(ALARM) {
			out[i].Label = "alarm (include id dissemination hops)"
		}
	}
	return append(out, s), nil
}

// Fig15b reproduces Fig. 15b: hops per packet versus node speed, with and
// without destination update for ALERT and GPSR.
func Fig15b(r Runner, seeds int) ([]analysis.Series, error) {
	results, err := r.RunBatch(updSweepCells(seeds))
	if err != nil {
		return nil, err
	}
	return updSweepReduce(results, seeds, func(res Result) float64 { return res.HopsPerPacket }), nil
}

// Fig16a reproduces Fig. 16a: delivery rate versus number of nodes.
func Fig16a(r Runner, seeds int) ([]analysis.Series, error) {
	results, err := r.RunBatch(sizeSweepCells(seeds))
	if err != nil {
		return nil, err
	}
	return nodeSweepSeries(results, seeds, func(res Result) float64 { return res.DeliveryRate }), nil
}

// Fig16b reproduces Fig. 16b: delivery rate versus node speed, with and
// without destination update, for ALERT and GPSR.
func Fig16b(r Runner, seeds int) ([]analysis.Series, error) {
	results, err := r.RunBatch(updSweepCells(seeds))
	if err != nil {
		return nil, err
	}
	return updSweepReduce(results, seeds, func(res Result) float64 { return res.DeliveryRate }), nil
}

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

func fig17Cells(seeds int) []Scenario {
	var cells []Scenario
	for _, c := range fig17Configs {
		for seed := 1; seed <= seeds; seed++ {
			sc := DefaultScenario()
			sc.Seed = int64(seed)
			sc.Protocol = ALERT
			sc.Mobility = c.mob
			sc.Groups = c.groups
			sc.GroupRange = c.groupRange
			sc.Duration = 60
			cells = append(cells, sc)
		}
	}
	return cells
}

// Fig17 reproduces Fig. 17: ALERT's delay under the random waypoint model
// versus the group mobility model with 10 groups/150 m and 5 groups/200 m.
func Fig17(r Runner, seeds int) ([]analysis.Series, error) {
	results, err := r.RunBatch(fig17Cells(seeds))
	if err != nil {
		return nil, err
	}
	var out []analysis.Series
	idx := 0
	for _, c := range fig17Configs {
		var sample stats.Sample
		for seed := 1; seed <= seeds; seed++ {
			sample.Add(results[idx].MeanLatency)
			idx++
		}
		out = append(out, analysis.Series{
			Label: c.label, X: []float64{0}, Y: []float64{sample.Mean()},
		})
	}
	return out, nil
}

// protocolCells is the grid the energy summary and the comparisons share:
// each protocol of protosAll at the sweepSeconds horizon.
func protocolCells(seeds int) []Scenario { return compareCells(protosAll, seeds, sweepSeconds) }

// EnergySummary returns each protocol's mean energy per delivered packet
// (joules) over seeds as one-point series — the `energy` registry entry.
func EnergySummary(r Runner, seeds int) ([]analysis.Series, error) {
	results, err := r.RunBatch(protocolCells(seeds))
	if err != nil {
		return nil, err
	}
	var out []analysis.Series
	idx := 0
	for _, p := range protosAll {
		var e float64
		for seed := 1; seed <= seeds; seed++ {
			e += results[idx].EnergyPerDelivered
			idx++
		}
		out = append(out, analysis.Series{
			Label: string(p), X: []float64{0}, Y: []float64{e / float64(seeds)},
		})
	}
	return out, nil
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

func compareCells(protocols []ProtocolName, seeds int, duration float64) []Scenario {
	var cells []Scenario
	for _, p := range protocols {
		for seed := 1; seed <= seeds; seed++ {
			sc := DefaultScenario()
			sc.Seed = int64(seed)
			sc.Protocol = p
			if duration > 0 {
				sc.Duration = duration
			}
			cells = append(cells, sc)
		}
	}
	return cells
}

// CompareProtocols runs every protocol `seeds` times on the default
// scenario and tests each pair's difference on the named metrics: the
// paper's orderings stated with statistical confidence rather than
// eyeballed means.
func CompareProtocols(r Runner, protocols []ProtocolName, seeds int, duration float64) ([]Comparison, error) {
	results, err := r.RunBatch(compareCells(protocols, seeds, duration))
	if err != nil {
		return nil, err
	}
	return compareResults(results, protocols, seeds), nil
}

// compareResults reduces a compareCells batch to the pairwise comparisons.
func compareResults(results []Result, protocols []ProtocolName, seeds int) []Comparison {
	metrics := []struct {
		name string
		get  func(Result) float64
	}{
		{"latency", func(res Result) float64 { return res.MeanLatency }},
		{"hops/packet", func(res Result) float64 { return res.HopsPerPacket }},
		{"delivery", func(res Result) float64 { return res.DeliveryRate }},
		{"route-similarity", func(res Result) float64 { return res.RouteJaccard }},
		{"energy/delivered", func(res Result) float64 { return res.EnergyPerDelivered }},
	}
	samples := map[ProtocolName]map[string]*stats.Sample{}
	idx := 0
	for _, p := range protocols {
		samples[p] = map[string]*stats.Sample{}
		for _, m := range metrics {
			samples[p][m.name] = &stats.Sample{}
		}
		for seed := 1; seed <= seeds; seed++ {
			res := results[idx]
			idx++
			for _, m := range metrics {
				samples[p][m.name].Add(m.get(res))
			}
		}
	}
	var out []Comparison
	for _, m := range metrics {
		for i := 0; i < len(protocols); i++ {
			for j := i + 1; j < len(protocols); j++ {
				a, b := protocols[i], protocols[j]
				sa, sb := samples[a][m.name], samples[b][m.name]
				out = append(out, Comparison{
					Metric: m.name,
					A:      a, B: b,
					MeanA: sa.Mean(), MeanB: sb.Mean(),
					Welch: stats.WelchT(sa, sb),
				})
			}
		}
	}
	return out
}
