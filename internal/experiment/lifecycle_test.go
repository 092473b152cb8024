package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"alertmanet/internal/gpsr"
	"alertmanet/internal/telemetry"
)

// TestPacketLifecycle checks, for every protocol with and without channel
// loss, the invariants a telemetry stream must satisfy if the event taps
// are wired correctly:
//
//  1. the stream is keyed by nondecreasing simulated time and no event is
//     emitted after the Duration+DrainTime horizon;
//  2. every packet.sent has exactly one packet.terminal (and vice versa),
//     and the stream's tallies agree with the run's Result;
//  3. per packet, the route events form a connected path: forwarding
//     decisions are made by the node currently holding the packet, hops
//     arrive where the packet was last sent, and each new routing leg
//     starts where the previous one ended.
func TestPacketLifecycle(t *testing.T) {
	for _, proto := range goldenProtocols {
		for _, loss := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("%s/loss=%.1f", proto, loss), func(t *testing.T) {
				sc := DefaultScenario()
				sc.Protocol = proto
				sc.LossRate = loss
				// A shorter horizon keeps ten runs fast; the lifecycle
				// invariants do not depend on run length.
				sc.Duration = 40

				var buf bytes.Buffer
				tap := telemetry.New(&buf, telemetry.LayerRoute|telemetry.LayerPacket)
				res, _, err := RunWorld(sc, tap)
				if err != nil {
					t.Fatal(err)
				}
				if err := tap.Flush(); err != nil {
					t.Fatal(err)
				}
				events, err := telemetry.ReadAll(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if len(events) == 0 {
					t.Fatal("no events emitted")
				}

				checkTimeline(t, events, sc.Duration+sc.DrainTime)
				checkLifecycles(t, events, res)
				checkConnectivity(t, events)
			})
		}
	}
}

// TestGreedyNoRevisitWithinEpoch: a greedy hop compares the holder's
// position with its neighbors' from one hello snapshot, so within one leg
// and one hello epoch every greedy forward moves strictly closer to the
// leg's target and never hands the packet back to a node that held it.
// Paper-default ALERT at 2 and 8 m/s, seeds 1-20: every leg aims at a point
// no node occupies, where two holders that each read their own exact
// position against the other's beacon bounced the packet between them.
func TestGreedyNoRevisitWithinEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("40 paper-default runs")
	}
	for _, speed := range []float64{2, 8} {
		for seed := int64(1); seed <= 20; seed++ {
			sc := DefaultScenario()
			sc.Seed, sc.Speed = seed, speed
			var buf bytes.Buffer
			tap := telemetry.New(&buf, telemetry.LayerRoute)
			if _, _, err := RunWorld(sc, tap); err != nil {
				t.Fatal(err)
			}
			if err := tap.Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := telemetry.ReadAll(&buf)
			if err != nil {
				t.Fatal(err)
			}
			// held is each packet's holders in its current leg and epoch.
			type leg struct {
				epoch int
				held  map[int]bool
			}
			legs := map[int]*leg{}
			forwards := 0
			for _, ev := range events {
				switch {
				case ev.Layer != "route":
				case ev.Kind == "send":
					legs[ev.Trace] = &leg{epoch: -1}
				case ev.Kind == "fwd" && ev.Detail == gpsr.Greedy.String():
					l := legs[ev.Trace]
					if e := int(ev.T / sc.HelloInterval); e != l.epoch {
						l.epoch, l.held = e, map[int]bool{ev.From: true}
					}
					if l.held[ev.To] {
						t.Fatalf("speed %v seed %d, packet %d at t=%v: greedy forward %d -> %d returns to a holder of this leg and epoch",
							speed, seed, ev.Trace, ev.T, ev.From, ev.To)
					}
					l.held[ev.To] = true
					forwards++
				}
			}
			if forwards == 0 {
				t.Fatalf("speed %v seed %d: no greedy forwards to check", speed, seed)
			}
		}
	}
}

func checkTimeline(t *testing.T, events []telemetry.Event, horizon float64) {
	t.Helper()
	prev := 0.0
	for _, ev := range events {
		if ev.T < prev {
			t.Fatalf("stream time regressed: %v after %v (%s/%s)", ev.T, prev, ev.Layer, ev.Kind)
		}
		prev = ev.T
		if ev.T > horizon {
			t.Fatalf("event after the drain horizon %v: %+v", horizon, ev)
		}
	}
}

func checkLifecycles(t *testing.T, events []telemetry.Event, res Result) {
	t.Helper()
	sent := map[int]int{}
	terminal := map[int]int{}
	delivered := 0
	for _, ev := range events {
		if ev.Layer != "packet" {
			continue
		}
		switch ev.Kind {
		case "sent":
			sent[ev.Trace]++
		case "terminal":
			terminal[ev.Trace]++
			if ev.Detail == "delivered" {
				delivered++
			}
		}
	}
	for trace, n := range sent {
		if n != 1 {
			t.Errorf("packet %d sent %d times", trace, n)
		}
		if terminal[trace] != 1 {
			t.Errorf("packet %d has %d terminal events, want exactly 1", trace, terminal[trace])
		}
	}
	for trace := range terminal {
		if sent[trace] == 0 {
			t.Errorf("packet %d terminated without being sent", trace)
		}
	}
	if len(sent) != res.Sent {
		t.Errorf("stream has %d sent packets, Result says %d", len(sent), res.Sent)
	}
	if delivered != res.Delivered {
		t.Errorf("stream has %d delivered packets, Result says %d", delivered, res.Delivered)
	}
}

// pathState tracks one packet's position through its route events.
type pathState struct {
	holder    int // node currently holding the packet
	lastFwdTo int // destination of the most recent forwarding decision
	legEnded  bool
}

func checkConnectivity(t *testing.T, events []telemetry.Event) {
	t.Helper()
	state := map[int]*pathState{}
	get := func(trace int) *pathState {
		s, ok := state[trace]
		if !ok {
			s = &pathState{holder: -1, lastFwdTo: -1}
			state[trace] = s
		}
		return s
	}
	for _, ev := range events {
		if ev.Layer != "route" || ev.Trace < 0 {
			continue
		}
		s := get(ev.Trace)
		switch ev.Kind {
		case "send":
			// A new leg starts where the previous one ended (ALERT's
			// random-forwarder relay), or anywhere for the first leg.
			if s.holder >= 0 && s.legEnded && ev.Node != s.holder {
				t.Fatalf("packet %d: leg starts at %d but previous leg ended at %d",
					ev.Trace, ev.Node, s.holder)
			}
			s.holder = ev.Node
			s.lastFwdTo = -1
			s.legEnded = false
		case "fwd":
			if s.holder >= 0 && ev.From != s.holder {
				t.Fatalf("packet %d: node %d forwarded (%s) but node %d holds the packet",
					ev.Trace, ev.From, ev.Detail, s.holder)
			}
			s.lastFwdTo = ev.To
		case "hop":
			// A packet can only arrive where it was last forwarded to.
			if ev.Node != s.lastFwdTo && ev.Node != s.holder {
				t.Fatalf("packet %d: arrived at %d, but was last at %d heading to %d",
					ev.Trace, ev.Node, s.holder, s.lastFwdTo)
			}
			s.holder = ev.Node
		case "leg":
			// The leg terminates at the node holding the packet. A leg
			// that died on air (ARQ exhausted) ends at the sender.
			if s.holder >= 0 && ev.Node != s.holder && ev.Node != s.lastFwdTo {
				t.Fatalf("packet %d: leg ended (%s) at %d, but packet was at %d",
					ev.Trace, ev.Detail, ev.Node, s.holder)
			}
			s.holder = ev.Node
			s.legEnded = true
		case "rf":
			// The random forwarder is the node the leg just reached.
			if s.holder >= 0 && ev.Node != s.holder {
				t.Fatalf("packet %d: RF %d selected but packet is at %d",
					ev.Trace, ev.Node, s.holder)
			}
		}
	}
	if len(state) == 0 {
		t.Fatal("no route events with a packet trace")
	}
}
