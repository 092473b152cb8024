// The evaluation registry: every output of the paper's evaluation as data —
// the Section 4 closed forms, the Section 5 simulation figures, Table 1,
// the Welch comparisons and the Section 3 attacks. Each entry has a name,
// the title printed above it, an optional Plan that enumerates the cells it
// needs up front, and either a Render that reduces executed cells into
// series or a Text for the two outputs that are not series. A simulation
// entry's Plan and its output come from one cells function (runsEntry,
// remainingEntry, compareAll), so they cannot name different cells. The
// split is what lets cmd/campaign run the union of all entries' cells as
// one deduplicated, resumable campaign and report per-entry completion
// without executing anything.

package experiment

import (
	"fmt"
	"math"
	"strings"

	"alertmanet/internal/analysis"
)

// Paper-default figure parameters.
const (
	defaultPackets = 20
	defaultHMax    = 7
	fig13bTarget   = 4
)

// The Section 3 attack parameters: every attacked session sends 25
// packets, and the interception and DoS adversaries subvert 3 relays.
const (
	attackPackets = 25
	attackRelays  = 3
)

// defaultTimes is the Figs. 12/13a sample-time grid.
func defaultTimes() []float64 { return []float64{0, 5, 10, 15, 20, 30, 40, 50} }

// analysisTimes is the Figs. 9a/9b sample-time grid.
func analysisTimes() []float64 { return []float64{0, 5, 10, 15, 20, 25, 30, 40, 50} }

// fig13bSpeeds is the Fig. 13b speed grid.
func fig13bSpeeds() []float64 { return []float64{1, 2, 4, 6, 8} }

// FigurePlan is the up-front cell enumeration of one figure: full
// simulation runs plus mobility-only remaining-nodes cells. Adaptive
// figures (Fig. 13b's density scan) cannot enumerate their cells before
// seeing results and return an empty plan; their cells still flow through
// the runner — and its cache — at render time.
type FigurePlan struct {
	Runs      []Scenario
	Remaining []RemainingSpec
}

// Figure is one registry entry.
type Figure struct {
	// Name is the CLI selector (fig7a ... fig17, energy, compare, table1,
	// and the attacks).
	Name string
	// Title is the heading printed above the output.
	Title string
	// Plan enumerates the cells the entry needs for a given seed count. It
	// is nil for entries that run no cells.
	Plan func(seeds int) FigurePlan
	// Render executes the entry through the runner and reduces to series.
	Render func(r Runner, seeds int) ([]analysis.Series, error)
	// Text is set instead of Render for the outputs that are not series:
	// Table 1 is strings, and a comparison carries t, df and a verdict.
	Text func(r Runner, seeds int) (string, error)
}

// Figures returns every output of the evaluation in presentation order, at
// the paper's default parameters.
func Figures() []Figure {
	return []Figure{
		{
			Name:  "fig7a",
			Title: "Fig. 7a (analysis): possible participating nodes vs partitions",
			Render: func(Runner, int) ([]analysis.Series, error) {
				return analysis.Fig7aPossibleParticipants([]int{100, 200, 400}, 8, 1000), nil
			},
		},
		{
			Name:  "fig7b",
			Title: "Fig. 7b (analysis): expected random forwarders vs partitions",
			Render: func(Runner, int) ([]analysis.Series, error) {
				return []analysis.Series{analysis.Fig7bExpectedRFs(8)}, nil
			},
		},
		{
			Name:  "fig9a",
			Title: "Fig. 9a (analysis): remaining nodes vs time (v=2 m/s, H=5)",
			Render: func(Runner, int) ([]analysis.Series, error) {
				return analysis.Fig9aRemainingNodes([]int{100, 200, 400}, 5, 1000, 2, analysisTimes()), nil
			},
		},
		{
			Name:  "fig9b",
			Title: "Fig. 9b (analysis): remaining nodes vs time (N=200, H=5)",
			Render: func(Runner, int) ([]analysis.Series, error) {
				return analysis.Fig9bRemainingNodes(200, 5, 1000, []float64{1, 2, 4}, analysisTimes()), nil
			},
		},
		{
			Name:   "overhead",
			Title:  "Section 4.3: location service overhead ratio (N_L(N_L-1)f + Nf)/(NF) vs F, paper default",
			Render: func(Runner, int) ([]analysis.Series, error) { return overheadSeries() },
		},
		runsEntry("fig10a", "Fig. 10a: cumulative actual participating nodes vs packets",
			func(seeds int) figureBatch { return fig10a(defaultPackets, seeds) }),
		runsEntry("fig10b", "Fig. 10b: participating nodes after 20 packets vs network size",
			func(seeds int) figureBatch { return fig10b(defaultPackets, seeds) }),
		runsEntry("fig11", "Fig. 11: random forwarders vs partitions (simulated; cf. Fig. 7b)",
			func(seeds int) figureBatch { return fig11(defaultHMax, seeds) }),
		remainingEntry("fig12", "Fig. 12: remaining nodes in Z_D vs time by density (H=5, v=2)",
			func(seeds int) remainingGrid { return fig12(defaultTimes(), seeds) }),
		remainingEntry("fig13a", "Fig. 13a: remaining nodes vs time by H and speed (N=200)",
			func(seeds int) remainingGrid { return fig13a(defaultTimes(), seeds) }),
		{
			Name:  "fig13b",
			Title: "Fig. 13b: required density vs speed (4 nodes remaining at t=10s)",
			// The density scan is adaptive: nothing to plan up front.
			Plan: func(seeds int) FigurePlan { return FigurePlan{} },
			Render: func(r Runner, seeds int) ([]analysis.Series, error) {
				s, err := Fig13b(r, fig13bTarget, fig13bSpeeds(), seeds)
				if err != nil {
					return nil, err
				}
				return []analysis.Series{s}, nil
			},
		},
		runsEntry("fig14a", "Fig. 14a: latency per packet (s) vs number of nodes", fig14a),
		runsEntry("fig14b", "Fig. 14b: latency per packet (s) vs node speed", fig14b),
		runsEntry("fig15a", "Fig. 15a: hops per packet vs number of nodes", fig15a),
		runsEntry("fig15b", "Fig. 15b: hops per packet vs node speed", fig15b),
		runsEntry("fig16a", "Fig. 16a: delivery rate vs number of nodes", fig16a),
		runsEntry("fig16b", "Fig. 16b: delivery rate vs node speed (with/without destination update)", fig16b),
		runsEntry("fig17", "Fig. 17: ALERT delay (s) under different movement models", fig17),
		runsEntry("energy", "Energy per delivered packet (J, transmission + cryptography)", energy),
		{
			// After energy, whose cells these are: `all` stores nothing new.
			Name:  "compare",
			Title: "Pairwise protocol comparisons (Welch's t-test, 95%)",
			Plan:  func(seeds int) FigurePlan { return FigurePlan{Runs: compareAll(seeds).cells} },
			Text:  func(r Runner, seeds int) (string, error) { return compareAll(seeds).run(r) },
		},
		{
			Name:  "table1",
			Title: "Table 1: anonymous routing protocol taxonomy",
			Text:  func(Runner, int) (string, error) { return FormatTable1(), nil },
		},
		{
			Name:   "intersection",
			Title:  "Section 3.3: intersection attack on the destination zone, 25-packet sessions",
			Render: func(_ Runner, seeds int) ([]analysis.Series, error) { return intersectionSeries(seeds), nil },
		},
		{
			Name:   "source",
			Title:  "Section 2.6: what an observer at S sees of one send, without and with notify-and-go",
			Render: func(_ Runner, seeds int) ([]analysis.Series, error) { return sourceSeries(seeds), nil },
		},
		{
			Name:  "timing",
			Title: "Section 3.2: timing attack, departure/arrival correlation (1.0 = fixed-delay signature)",
			Render: func(_ Runner, seeds int) ([]analysis.Series, error) {
				return protocolMeans(seeds, func(s int64, p ProtocolName) float64 {
					return TimingAttackScore(s, p, attackPackets)
				}), nil
			},
		},
		{
			Name:  "interception",
			Title: "Section 3.1: share of session packets captured by 3 compromised first-route relays",
			Render: func(_ Runner, seeds int) ([]analysis.Series, error) {
				return protocolMeans(seeds, func(s int64, p ProtocolName) float64 {
					return InterceptionExperiment(s, p, attackPackets, attackRelays)
				}), nil
			},
		},
		{
			Name:   "dos",
			Title:  "Section 3.1: delivery before and after 3 first-route relays turn into packet sinks",
			Render: func(_ Runner, seeds int) ([]analysis.Series, error) { return dosSeries(seeds), nil },
		},
	}
}

// FindFigure returns the registry entry with the given name.
func FindFigure(name string) (Figure, bool) {
	for _, f := range Figures() {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// runsEntry is a simulation entry whose Plan and Render both come from
// one cells function: Plan lists the batch's cells, and Render reduces
// exactly those cells' results.
func runsEntry(name, title string, cells func(seeds int) figureBatch) Figure {
	return Figure{Name: name, Title: title,
		Plan:   func(seeds int) FigurePlan { return FigurePlan{Runs: cells(seeds).cells} },
		Render: func(r Runner, seeds int) ([]analysis.Series, error) { return cells(seeds).run(r) },
	}
}

// remainingEntry is runsEntry for a grid of remaining-nodes cells.
func remainingEntry(name, title string, cells func(seeds int) remainingGrid) Figure {
	return Figure{Name: name, Title: title,
		Plan:   func(seeds int) FigurePlan { return FigurePlan{Remaining: cells(seeds).cells} },
		Render: func(r Runner, seeds int) ([]analysis.Series, error) { return cells(seeds).run(r) },
	}
}

// point is a one-point series, the shape of the energy and attack entries.
func point(label string, y float64) analysis.Series {
	return analysis.Series{Label: label, X: []float64{0}, Y: []float64{y}}
}

// protocolMeans averages an attack measurement over the sessions at seeds
// 1..seeds, for GPSR and for ALERT.
func protocolMeans(seeds int, measure func(seed int64, p ProtocolName) float64) []analysis.Series {
	var out []analysis.Series
	for _, p := range []ProtocolName{GPSR, ALERT} {
		var sum float64
		for s := int64(1); s <= int64(seeds); s++ {
			sum += measure(s, p)
		}
		out = append(out, point(string(p), sum/float64(seeds)))
	}
	return out
}

// overheadSeries evaluates Section 4.3's overhead ratio with the location
// service of the paper-default world (N=200, N_L=15, f=0.5/s) at message
// frequencies F of 1 to 20 per node per second.
func overheadSeries() ([]analysis.Series, error) {
	w, err := Build(DefaultScenario())
	if err != nil {
		return nil, err
	}
	s := analysis.Series{Label: "overhead ratio"}
	for _, f := range []float64{1, 2, 5, 10, 20} {
		s.X = append(s.X, f)
		s.Y = append(s.Y, w.Loc.OverheadRatio(f))
	}
	return []analysis.Series{s}, nil
}

// compareAll is the compare entry's batch: the Welch comparisons over the
// energy summary's cells, one line per protocol pair and metric.
func compareAll(seeds int) batch[string] {
	cmp := compare(protosAll, seeds, sweepSeconds)
	return batch[string]{cmp.cells, func(results []Result) (string, error) {
		cs, err := cmp.reduce(results)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, c := range cs {
			verdict := "not significant"
			if c.Welch.Significant {
				verdict = "SIGNIFICANT"
			}
			fmt.Fprintf(&b, "  %-17s %-6s %10.4f  vs  %-6s %10.4f   t=%7.2f df=%-3d %s\n",
				c.Metric, c.A, c.MeanA, c.B, c.MeanB, c.Welch.T, c.Welch.DF, verdict)
		}
		return b.String(), nil
	}}
}

// intersectionSeries mounts the Section 3.3 intersection attack on plain
// zone broadcasts and on the two-step m-of-k multicast: the share of
// sessions in which D survives the intersection, the share in which it is
// the only survivor, and the mean surviving candidate pool.
func intersectionSeries(seeds int) []analysis.Series {
	var out []analysis.Series
	for _, guard := range []bool{false, true} {
		mode := "broadcast"
		if guard {
			mode = "m-of-k"
		}
		var candidate, identified, pool float64
		for s := int64(1); s <= int64(seeds); s++ {
			r := IntersectionAttack(s, attackPackets, guard)
			if r.DstCandidate {
				candidate++
			}
			if r.Exposed {
				identified++
			}
			pool += float64(r.Candidates)
		}
		n := float64(seeds)
		out = append(out,
			point(mode+": D still a candidate", candidate/n),
			point(mode+": D identified", identified/n),
			point(mode+": mean candidate pool", pool/n))
	}
	return out
}

// sourceSeries measures Section 2.6's notify-and-go: how many transmitters
// an observer parked on S sees in the send window, how far its
// triangulated estimate lands from S (NaN when no session gave an
// estimate), and η, the source's neighbour count.
func sourceSeries(seeds int) []analysis.Series {
	var seen, tri [2]float64
	var eta float64
	for i, cover := range []bool{false, true} {
		var sum float64
		observed := 0
		for s := int64(1); s <= int64(seeds); s++ {
			a, e := sourceSend(s, cover)
			seen[i] += float64(a.AnonymitySet)
			if cover {
				eta += float64(a.Neighbors)
			}
			if e >= 0 {
				sum += e
				observed++
			}
		}
		seen[i] /= float64(seeds)
		tri[i] = math.NaN()
		if observed > 0 {
			tri[i] = sum / float64(observed)
		}
	}
	return []analysis.Series{
		point("transmitters seen, no cover", seen[0]),
		point("transmitters seen, notify-and-go", seen[1]),
		point("triangulation m, no cover", tri[0]),
		point("triangulation m, notify-and-go", tri[1]),
		point("η, source neighbours", eta/float64(seeds)),
	}
}

// dosSeries measures Section 3.1's denial of service: each protocol's
// delivery over the first half of a session and, after the adversary turns
// 3 relays of the first delivered route into packet sinks, over the second.
func dosSeries(seeds int) []analysis.Series {
	var out []analysis.Series
	for _, p := range []ProtocolName{GPSR, ALERT} {
		var before, after float64
		for s := int64(1); s <= int64(seeds); s++ {
			r := DoSAttack(s, p, attackPackets, attackRelays)
			before += r.BaselineDelivery
			after += r.UnderAttackDelivery
		}
		out = append(out,
			point(string(p)+" baseline", before/float64(seeds)),
			point(string(p)+" under attack", after/float64(seeds)))
	}
	return out
}
