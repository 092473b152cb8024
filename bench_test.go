// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md. Each benchmark iteration regenerates the experiment behind its
// figure with a reduced seed count (shapes, not confidence intervals);
// `campaign run` produces the full-seeds output.
//
//	go test -bench=. -benchmem
package alert

import (
	"io"
	"runtime"
	"testing"

	"alertmanet/internal/analysis"
	"alertmanet/internal/campaign"
	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/live"
	"alertmanet/internal/telemetry"
)

// sink prevents dead-code elimination of benchmark results.
var sink any

// benchFig assigns a figure's series to the sink, failing on figure error.
func benchFig(b *testing.B) func(s []analysis.Series, err error) {
	return func(s []analysis.Series, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		sink = s
	}
}

// benchFig1 is benchFig for single-series figures.
func benchFig1(b *testing.B) func(s analysis.Series, err error) {
	return func(s analysis.Series, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		sink = s
	}
}

// ---- Analytical figures (Section 4) ----------------------------------------

// BenchmarkFig7aPossibleParticipants regenerates Fig. 7a: Eq. (7) curves of
// possible participating nodes versus partitions for N in {100, 200, 400}.
func BenchmarkFig7aPossibleParticipants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = analysis.Fig7aPossibleParticipants([]int{100, 200, 400}, 8, 1000)
	}
}

// BenchmarkFig7bExpectedRFs regenerates Fig. 7b: Eq. (10) expected random
// forwarders versus partitions.
func BenchmarkFig7bExpectedRFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = analysis.Fig7bExpectedRFs(8)
	}
}

// BenchmarkFig9aRemainingNodes regenerates Fig. 9a: Eq. (15) remaining
// destination-zone nodes over time by density.
func BenchmarkFig9aRemainingNodes(b *testing.B) {
	times := []float64{0, 5, 10, 15, 20, 25, 30}
	for i := 0; i < b.N; i++ {
		sink = analysis.Fig9aRemainingNodes([]int{100, 200, 400}, 5, 1000, 2, times)
	}
}

// BenchmarkFig9bRemainingNodes regenerates Fig. 9b: Eq. (15) by speed.
func BenchmarkFig9bRemainingNodes(b *testing.B) {
	times := []float64{0, 5, 10, 15, 20, 25, 30}
	for i := 0; i < b.N; i++ {
		sink = analysis.Fig9bRemainingNodes(200, 5, 1000, []float64{1, 2, 4}, times)
	}
}

// ---- Simulation figures (Section 5) -----------------------------------------

// BenchmarkFig10aParticipatingNodes regenerates Fig. 10a: cumulative actual
// participating nodes over 20 packets, ALERT vs GPSR at 100 and 200 nodes.
func BenchmarkFig10aParticipatingNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig10a(experiment.DirectRunner{}, 20, 1))
	}
}

// BenchmarkFig10bParticipantsVsN regenerates Fig. 10b.
func BenchmarkFig10bParticipantsVsN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig10b(experiment.DirectRunner{}, 20, 1))
	}
}

// BenchmarkFig11RandomForwarders regenerates Fig. 11: simulated random
// forwarders versus partitions.
func BenchmarkFig11RandomForwarders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig1(b)(experiment.Fig11(experiment.DirectRunner{}, 7, 1))
	}
}

// BenchmarkFig12RemainingNodes regenerates Fig. 12: simulated remaining
// zone nodes over time by density.
func BenchmarkFig12RemainingNodes(b *testing.B) {
	times := []float64{0, 10, 20, 30, 40}
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig12(experiment.DirectRunner{}, times, 2))
	}
}

// BenchmarkFig13aRemainingBySpeed regenerates Fig. 13a.
func BenchmarkFig13aRemainingBySpeed(b *testing.B) {
	times := []float64{0, 10, 20, 30}
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig13a(experiment.DirectRunner{}, times, 2))
	}
}

// BenchmarkFig13bRequiredDensity regenerates Fig. 13b: the density needed
// to keep 4 nodes in the zone after 10 s, versus speed.
func BenchmarkFig13bRequiredDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig1(b)(experiment.Fig13b(experiment.DirectRunner{}, 4, []float64{2, 8}, 1))
	}
}

// BenchmarkFig14aLatency regenerates Fig. 14a: latency versus network size
// for all four protocols.
func BenchmarkFig14aLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig14a(experiment.DirectRunner{}, 1))
	}
}

// BenchmarkFig14bLatencyVsSpeed regenerates Fig. 14b.
func BenchmarkFig14bLatencyVsSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig14b(experiment.DirectRunner{}, 1))
	}
}

// BenchmarkFig15aHops regenerates Fig. 15a: hops per packet versus network
// size, including ALARM's dissemination series.
func BenchmarkFig15aHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig15a(experiment.DirectRunner{}, 1))
	}
}

// BenchmarkFig15bHopsVsSpeed regenerates Fig. 15b.
func BenchmarkFig15bHopsVsSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig15b(experiment.DirectRunner{}, 1))
	}
}

// BenchmarkFig16aDelivery regenerates Fig. 16a: delivery rate versus
// network size.
func BenchmarkFig16aDelivery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig16a(experiment.DirectRunner{}, 1))
	}
}

// BenchmarkFig16bDeliveryVsSpeed regenerates Fig. 16b with and without
// destination updates.
func BenchmarkFig16bDeliveryVsSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig16b(experiment.DirectRunner{}, 1))
	}
}

// BenchmarkFig17MobilityModels regenerates Fig. 17: ALERT's delay under
// random waypoint versus group mobility.
func BenchmarkFig17MobilityModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFig(b)(experiment.Fig17(experiment.DirectRunner{}, 1))
	}
}

// BenchmarkTable1Taxonomy regenerates Table 1.
func BenchmarkTable1Taxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiment.FormatTable1()
	}
}

// ---- Section 3 attack experiments -------------------------------------------

// BenchmarkIntersectionAttack runs the Section 3.3 attack session with the
// countermeasure off (the attacker's best case).
func BenchmarkIntersectionAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiment.IntersectionAttack(int64(i+1), 25, false)
	}
}

// BenchmarkTimingAttack runs the Section 3.2 correlation attack on ALERT.
func BenchmarkTimingAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = experiment.TimingAttackScore(int64(i+1), experiment.ALERT, 20)
	}
}

// ---- Ablations (design choices called out in DESIGN.md) --------------------

// BenchmarkAblationK sweeps the destination-anonymity parameter k: larger k
// means a bigger zone (fewer partitions), fewer random forwarders, and a
// costlier final broadcast. Reported via per-iteration metrics.
func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{3, 6, 12, 25} {
		k := k
		b.Run(benchName("k", k), func(b *testing.B) {
			var hops, rfs float64
			for i := 0; i < b.N; i++ {
				sc := experiment.DefaultScenario()
				sc.Seed = int64(i + 1)
				sc.Alert.K = k
				sc.Duration = 30
				r := experiment.MustRun(sc)
				hops += r.HopsPerPacket
				rfs += r.MeanRFs
			}
			b.ReportMetric(hops/float64(b.N), "hops/pkt")
			b.ReportMetric(rfs/float64(b.N), "RFs/pkt")
		})
	}
}

// BenchmarkAblationNotifyAndGo measures the source-anonymity mechanism's
// cost: cover traffic and added delay versus the anonymity-set size.
func BenchmarkAblationNotifyAndGo(b *testing.B) {
	for _, on := range []bool{false, true} {
		on := on
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				sc := experiment.DefaultScenario()
				sc.Seed = int64(i + 1)
				sc.Alert.NotifyAndGo = on
				sc.Duration = 30
				lat += experiment.MustRun(sc).MeanLatency
			}
			b.ReportMetric(lat/float64(b.N)*1e3, "ms/pkt")
		})
	}
}

// BenchmarkAblationIntersectionGuard measures the two-step multicast's
// delivery-latency cost against its anonymity benefit.
func BenchmarkAblationIntersectionGuard(b *testing.B) {
	for _, on := range []bool{false, true} {
		on := on
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var lat, del float64
			for i := 0; i < b.N; i++ {
				sc := experiment.DefaultScenario()
				sc.Seed = int64(i + 1)
				sc.Alert.IntersectionGuard = on
				sc.Duration = 30
				r := experiment.MustRun(sc)
				lat += r.MeanLatency
				del += r.DeliveryRate
			}
			b.ReportMetric(lat/float64(b.N)*1e3, "ms/pkt")
			b.ReportMetric(del/float64(b.N), "delivery")
		})
	}
}

// BenchmarkAblationHelloInterval measures the sensitivity of delivery to
// neighbor-table staleness (hello beacon period) at 8 m/s.
func BenchmarkAblationHelloInterval(b *testing.B) {
	for _, interval := range []float64{0.5, 1, 2, 4} {
		interval := interval
		b.Run(benchFloat("hello", interval), func(b *testing.B) {
			var del float64
			for i := 0; i < b.N; i++ {
				sc := experiment.DefaultScenario()
				sc.Seed = int64(i + 1)
				sc.Speed = 8
				sc.HelloInterval = interval
				sc.Duration = 30
				del += experiment.MustRun(sc).DeliveryRate
			}
			b.ReportMetric(del/float64(b.N), "delivery")
		})
	}
}

// BenchmarkProtocolThroughput measures raw simulator throughput per
// protocol: one default 100-second workload per iteration.
func BenchmarkProtocolThroughput(b *testing.B) {
	for _, p := range []experiment.ProtocolName{
		experiment.ALERT, experiment.GPSR, experiment.ALARM, experiment.AO2P,
	} {
		p := p
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := experiment.DefaultScenario()
				sc.Seed = int64(i + 1)
				sc.Protocol = p
				sink = experiment.MustRun(sc)
			}
		})
	}
}

// BenchmarkTelemetryOverhead times the observability layer's cost contract
// (DESIGN.md, "Observability") as an ungated smoke; TestNilTapZeroAlloc is
// what pins it. "disabled" runs a full default ALERT scenario with the tap
// nil — every emit site reduces to a branch — and should stay within noise
// of the pre-telemetry simulator; "enabled" streams every layer to a
// discarding writer, the cost a traced run pays.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := experiment.DefaultScenario()
			sc.Seed = int64(i + 1)
			sink = experiment.MustRun(sc)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := experiment.DefaultScenario()
			sc.Seed = int64(i + 1)
			tap := telemetry.New(io.Discard, telemetry.LayerAll)
			r, _, err := experiment.RunWorld(sc, tap)
			if err != nil {
				b.Fatal(err)
			}
			sink = r
		}
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func benchFloat(prefix string, v float64) string {
	whole := int(v)
	frac := int(v*10) % 10
	if frac == 0 {
		return prefix + "=" + itoa(whole) + "s"
	}
	return prefix + "=" + itoa(whole) + "." + itoa(frac) + "s"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for v > 0 {
		p--
		buf[p] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[p:])
}

// BenchmarkAblationPartitionOrder compares the paper's alternating
// horizontal/vertical cuts against always cutting the same axis: the
// alternation keeps zones squarish so each temporary destination approaches
// D (Section 2.3), which shows up as fewer hops per packet.
func BenchmarkAblationPartitionOrder(b *testing.B) {
	for _, fixed := range []bool{false, true} {
		fixed := fixed
		name := "alternating"
		if fixed {
			name = "fixed-axis"
		}
		b.Run(name, func(b *testing.B) {
			var hops, del float64
			for i := 0; i < b.N; i++ {
				sc := experiment.DefaultScenario()
				sc.Seed = int64(i + 1)
				sc.Alert.FixedAxisPartition = fixed
				sc.Duration = 30
				r := experiment.MustRun(sc)
				hops += r.HopsPerPacket
				del += r.DeliveryRate
			}
			b.ReportMetric(hops/float64(b.N), "hops/pkt")
			b.ReportMetric(del/float64(b.N), "delivery")
		})
	}
}

// BenchmarkIntersectionRemedy compares the per-packet cost growth of the
// two Section 3.3 remedies over a long session: ZAP's zone enlargement
// versus ALERT's two-step multicast.
func BenchmarkIntersectionRemedy(b *testing.B) {
	for _, alert := range []bool{false, true} {
		alert := alert
		name := "zap-enlarge"
		if alert {
			name = "alert-guard"
		}
		b.Run(name, func(b *testing.B) {
			var growth float64
			for i := 0; i < b.N; i++ {
				r := experiment.IntersectionRemedyCost(int64(i+1), 15, alert)
				growth += r.HopsLast - r.HopsFirst
			}
			b.ReportMetric(growth/float64(b.N), "hop-growth")
		})
	}
}

// BenchmarkDoSAttack measures delivery under the Section 3.1
// compromised-relay attack for ALERT and GPSR.
func BenchmarkDoSAttack(b *testing.B) {
	for _, p := range []experiment.ProtocolName{experiment.ALERT, experiment.GPSR} {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var after float64
			for i := 0; i < b.N; i++ {
				after += experiment.DoSAttack(int64(i+1), p, 20, 3).UnderAttackDelivery
			}
			b.ReportMetric(after/float64(b.N), "delivery-under-dos")
		})
	}
}

// BenchmarkEnergyPerDelivered measures each protocol's energy per delivered
// packet (transmission + cryptography), supporting the paper's claim that
// ALERT's cost sits far below the hop-by-hop-encryption protocols.
func BenchmarkEnergyPerDelivered(b *testing.B) {
	for _, p := range []experiment.ProtocolName{
		experiment.ALERT, experiment.GPSR, experiment.ALARM, experiment.AO2P,
	} {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				sc := experiment.DefaultScenario()
				sc.Seed = int64(i + 1)
				sc.Protocol = p
				sc.Duration = 30
				e += experiment.MustRun(sc).EnergyPerDelivered
			}
			b.ReportMetric(e/float64(b.N)*1e3, "mJ/pkt")
		})
	}
}

// BenchmarkLargeFieldThroughput measures the engine on a 10k-node field:
// GPSR (the pure-geographic hot path) on a 7000 m square with light CBR
// traffic. The field is far above the fork floor, so world construction and
// the position sweeps run on every CPU (sim.For); on a single-CPU runner they
// stay serial. The run is byte-identical either way, so events/s is a clean
// measure of the parallel sweeps (see EXPERIMENTS.md, "Parallel sweeps").
func BenchmarkLargeFieldThroughput(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		sc := experiment.DefaultScenario()
		sc.Protocol = experiment.GPSR
		sc.N = 10000
		sc.Field = geo.Rect{Max: geo.Point{X: 7000, Y: 7000}}
		sc.Pairs = 40
		sc.Duration = 5
		sc.DrainTime = 2
		sc.Seed = int64(i + 1)
		res, w, err := experiment.RunWorld(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		events += w.Eng.Processed()
		sink = res
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkCampaignThroughput measures the campaign engine's end-to-end
// cell throughput at full parallelism — the cells/minute figure EXPERIMENTS.md
// quotes for `make figures` — with no cache or store, so the number is pure
// scheduling plus simulation. Each iteration uses a fresh engine (the memo
// would otherwise make every iteration after the first free).
func BenchmarkCampaignThroughput(b *testing.B) {
	cells := make([]experiment.Scenario, 8)
	for i := range cells {
		sc := experiment.DefaultScenario()
		sc.N = 100
		sc.Duration = 20
		sc.Seed = int64(i + 1)
		cells[i] = sc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := &campaign.Engine{Jobs: runtime.NumCPU()}
		res, err := eng.RunBatch(cells)
		if err != nil {
			b.Fatal(err)
		}
		sink = res
	}
	b.ReportMetric(float64(b.N*len(cells))/b.Elapsed().Minutes(), "cells/min")
}

// BenchmarkLiveLoopbackThroughput measures the live data plane: a 25-node
// static fleet of real UDP daemons on loopback runs a 10-second emulated
// CBR scenario at timescale 0 minus the wall-clock march (timescale 0.01
// compresses it to ~150 ms), and the metric is datagrams through the
// sockets per wall second — the envelope codec, pump goroutines, emulated
// medium and router all on the measured path.
func BenchmarkLiveLoopbackThroughput(b *testing.B) {
	sc := experiment.DefaultScenario()
	sc.Protocol = experiment.ALERT
	sc.N = 25
	sc.Field = geo.Rect{Max: geo.Point{X: 600, Y: 600}}
	sc.Mobility = experiment.Static
	sc.Duration = 10
	sc.DrainTime = 2
	sc.Pairs = 2
	sc.Interval = 2
	sc.LocUpdates = false
	var datagrams uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := live.RunFleet(sc, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Delivered == 0 {
			b.Fatal("live bench fleet delivered nothing")
		}
		datagrams += sum.Counters.TxDatagrams
		sink = sum
	}
	b.ReportMetric(float64(datagrams)/b.Elapsed().Seconds(), "frames/s")
}
