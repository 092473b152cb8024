package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"alertmanet/internal/experiment"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/telemetry"
)

// tlmEvent is one telemetry line, as far as these tests read it.
type tlmEvent struct {
	T      float64 `json:"t"`
	Layer  string  `json:"layer"`
	Kind   string  `json:"kind"`
	Trace  int     `json:"trace"`
	Node   int     `json:"node"`
	Detail string  `json:"detail"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	Size   int     `json:"size"`
}

// runTapped runs sc on a fleet whose daemons all write telemetry and
// returns every event, grouped by trace and ordered by virtual time (each
// stream's own order breaks ties).
func runTapped(t *testing.T, sc experiment.Scenario) (Summary, map[int][]tlmEvent) {
	t.Helper()
	bufs := make([]*bytes.Buffer, sc.N)
	fl, err := SpawnFleetWithTaps(sc, 0.01, func(id int) *telemetry.Tap {
		bufs[id] = new(bytes.Buffer)
		return telemetry.New(bufs[id], telemetry.LayerAll)
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := NewCoordinator(fl.World, fl.Handles(), 0.01).Run()
	if cerr := fl.Close(); err == nil { // Close flushes the taps
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var all []tlmEvent
	for _, b := range bufs {
		sc := bufio.NewScanner(b)
		for sc.Scan() {
			var ev tlmEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("%v in %s", err, sc.Text())
			}
			all = append(all, ev)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].T < all[j].T })
	byTrace := make(map[int][]tlmEvent)
	for _, ev := range all {
		byTrace[ev.Trace] = append(byTrace[ev.Trace], ev)
	}
	return sum, byTrace
}

// TestTelemetryVocabulary holds a small ALERT fleet's and a small GPSR
// fleet's streams to the simulator's: every route leg ends in a
// gpsr.Outcome, GPSR deliveries included; each leg has one route send; a
// random forwarder is logged exactly when it is not its leg's origin
// (core.route's rf != at); and each zone broadcast is one medium bcast.
// At seed 2 two of the ALERT fleet's legs arrive where they started, so no
// random forwarder may be logged for them. The medium layer must use the
// simulator's kinds and loss reasons, and, as the simulator's medium
// stamps a unicast's tx at its send time, each tx must precede its rx,
// dup or loss at the receiver by at least the frame's time on air. Every
// line of a packet is on its virtual clock, so by t each trace opens with
// its packet sent.
func TestTelemetryVocabulary(t *testing.T) {
	outcomes := map[string]bool{}
	for o := gpsr.Delivered; o <= gpsr.DroppedLink; o++ {
		outcomes[o.String()] = true
	}
	for _, p := range []experiment.ProtocolName{experiment.ALERT, experiment.GPSR} {
		t.Run(string(p), func(t *testing.T) {
			sc := smokeScenario(p, 25, 2)
			sum, byTrace := runTapped(t, sc)
			if sum.Delivered == 0 {
				t.Fatal("no deliveries")
			}
			checkMediumVocabulary(t, byTrace, sc.MediumParams().Bitrate)
			ends := map[string]int{}
			totalRFs, totalBcasts, stayed := 0, 0, 0
			for trace, evs := range byTrace {
				if first := evs[0]; first.Layer != "packet" || first.Kind != "sent" {
					t.Errorf("trace %d opens with %s %s at t=%v, not its packet sent", trace, first.Layer, first.Kind, first.T)
				}
				open, origin, lastEnd := false, -1, tlmEvent{}
				wantRF, rfs, zonecasts, bcasts := 0, 0, 0, 0
				for _, ev := range evs {
					switch ev.Layer + " " + ev.Kind {
					case "route send":
						if open {
							t.Errorf("trace %d: route send at node %d before the previous leg ended", trace, ev.Node)
						}
						open, origin = true, ev.Node
					case "route leg":
						if !outcomes[ev.Detail] {
							t.Errorf("trace %d: leg detail %q is no gpsr.Outcome", trace, ev.Detail)
						}
						if !open {
							t.Errorf("trace %d: leg ended at node %d without a route send", trace, ev.Node)
						}
						ends[ev.Detail]++
						open, lastEnd = false, ev
						if ev.Node == origin {
							stayed++
						} else if ev.Detail == gpsr.ArrivedClosest.String() {
							wantRF++
						}
					case "route rf":
						rfs++
						if lastEnd.Detail != gpsr.ArrivedClosest.String() || lastEnd.Node != ev.Node {
							t.Errorf("trace %d: rf at node %d does not follow its leg's arrival there", trace, ev.Node)
						}
					case "route zonecast":
						zonecasts++
					case "medium bcast":
						bcasts++
					}
				}
				if open {
					t.Errorf("trace %d: a leg never ended", trace)
				}
				if rfs != wantRF {
					t.Errorf("trace %d: %d rf events for %d legs that left their origin", trace, rfs, wantRF)
				}
				if bcasts != zonecasts {
					t.Errorf("trace %d: %d medium bcast lines for %d zone broadcasts", trace, bcasts, zonecasts)
				}
				totalRFs += rfs
				totalBcasts += bcasts
			}
			want := gpsr.ArrivedClosest.String()
			if p == experiment.GPSR {
				want = gpsr.Delivered.String()
			}
			if ends[want] == 0 {
				t.Errorf("no leg ended %s; leg endings %v", want, ends)
			}
			if p == experiment.ALERT && (totalRFs == 0 || totalBcasts == 0) {
				t.Errorf("%d rf events and %d broadcasts: nothing to check", totalRFs, totalBcasts)
			}
			t.Logf("leg endings %v (%d where the leg started), %d rf events, %d broadcasts",
				ends, stayed, totalRFs, totalBcasts)
		})
	}
}

// mediumKinds and lossReasons are the medium-layer kinds and loss details
// the simulator's medium writes (internal/medium).
var (
	mediumKinds = map[string]bool{"tx": true, "rx": true, "dup": true, "loss": true,
		"bcast": true, "ack": true, "ackloss": true}
	lossReasons = map[string]bool{"range": true, "loss": true, "compromised": true}
)

// checkMediumVocabulary checks every medium line's kind and loss reason,
// and pairs each unicast tx, in time order, with the next rx, dup or loss
// of the same trace on the same link: it must come at least the frame's
// size·8/bitrate later. Receptions of a zone broadcast's copies (after the
// sender's bcast of that trace) have no tx and are left out.
func checkMediumVocabulary(t *testing.T, byTrace map[int][]tlmEvent, bitrate float64) {
	t.Helper()
	type link struct{ trace, from, to int }
	paired := 0
	for trace, evs := range byTrace {
		bcastAt := map[int]float64{}
		sent := map[link][]tlmEvent{}
		for _, ev := range evs {
			if ev.Layer != "medium" {
				continue
			}
			if !mediumKinds[ev.Kind] {
				t.Errorf("trace %d: medium kind %q, which the simulator never writes", trace, ev.Kind)
			}
			if ev.Kind == "loss" && !lossReasons[ev.Detail] {
				t.Errorf("trace %d: loss reason %q, which the simulator never writes", trace, ev.Detail)
			}
			k := link{trace, ev.From, ev.To}
			switch ev.Kind {
			case "bcast":
				if _, ok := bcastAt[ev.From]; !ok {
					bcastAt[ev.From] = ev.T
				}
			case "tx":
				sent[k] = append(sent[k], ev)
			case "rx", "dup", "loss":
				if at, ok := bcastAt[ev.From]; ok && ev.T >= at && len(sent[k]) == 0 {
					continue // a broadcast copy
				}
				if len(sent[k]) == 0 {
					t.Errorf("trace %d: medium %s %d→%d at %v with no tx before it", trace, ev.Kind, ev.From, ev.To, ev.T)
					continue
				}
				tx := sent[k][0]
				sent[k] = sent[k][1:]
				if air := float64(tx.Size*8) / bitrate; ev.T-tx.T < air*(1-1e-9) {
					t.Errorf("trace %d: medium tx %d→%d at %v, its %s at %v: %v apart, under the %v on air",
						trace, ev.From, ev.To, tx.T, ev.Kind, ev.T, ev.T-tx.T, air)
				}
				paired++
			}
		}
	}
	if paired == 0 {
		t.Error("no unicast tx paired with its reception: nothing to check")
	}
}

// TestRetriesExhaustedEndLeg drives one daemon without sockets: a frame
// whose ARQ spends its retry budget ends its leg dropped-link at the
// sender, as the simulator's Router does on a lost send, and, like the
// simulator's ARQ, writes no medium line of its own for giving up.
func TestRetriesExhaustedEndLeg(t *testing.T) {
	d := newDaemon(DaemonConfigFor(smokeScenario(experiment.GPSR, 5, 1), 0, 0))
	var b bytes.Buffer
	d.SetTap(telemetry.New(&b, telemetry.LayerRoute|telemetry.LayerMedium))
	d.pend[1] = &pending{frame: Frame{Kind: KindData, Flow: 2, Seq: 3, To: 1, Path: []int32{0}},
		attempts: d.cfg.Medium.Retries + 1}
	d.retry(1)
	if err := d.tap.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.counts.LegDropLink != 1 || d.counts.SendsLost != 1 {
		t.Errorf("LegDropLink %d, SendsLost %d; want 1 and 1", d.counts.LegDropLink, d.counts.SendsLost)
	}
	if !strings.Contains(b.String(), `"kind":"leg","trace":2097155,"node":0,"detail":"dropped-link"`) {
		t.Errorf("stream lacks the dropped-link leg:\n%s", b.String())
	}
	if strings.Contains(b.String(), `"layer":"medium"`) {
		t.Errorf("giving up wrote a medium line:\n%s", b.String())
	}
}

// TestLegOrigin: a frame's current leg started where Path stood before the
// hops its budget paid for; counts that disagree name no origin.
func TestLegOrigin(t *testing.T) {
	const full = gpsr.DefaultHopBudget
	for _, c := range []struct {
		budget uint16
		path   []int32
		want   int32
		ok     bool
	}{
		{full, []int32{5, 7, 9}, 9, true},
		{full - 2, []int32{5, 7, 9}, 5, true},
		{full - 1, []int32{5, 7, 9}, 7, true},
		{full - 3, []int32{5, 7, 9}, None, false},
		{full + 1, []int32{5, 7, 9}, None, false},
		{full, nil, None, false},
	} {
		got, ok := legOrigin(&Frame{HopBudget: c.budget, Path: c.path})
		if got != c.want || ok != c.ok {
			t.Errorf("budget %d path %v: origin %d, %v; want %d, %v", c.budget, c.path, got, ok, c.want, c.ok)
		}
	}
}
