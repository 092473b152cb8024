package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"alertmanet/internal/telemetry"
)

// selfRescheduling arms an event loop that never drains: the classic bug
// MaxEvents exists to catch.
func selfRescheduling(e *Engine) {
	var tick func()
	tick = func() { e.Schedule(0.1, tick) }
	e.Schedule(0, tick)
}

func TestMaxEventsRun(t *testing.T) {
	e := NewEngine()
	selfRescheduling(e)
	e.SetMaxEvents(10)
	err := e.Run()
	if !errors.Is(err, ErrMaxEvents) {
		t.Fatalf("Run() = %v, want ErrMaxEvents", err)
	}
	if e.Processed() != 10 {
		t.Errorf("processed %d events, want exactly the budget 10", e.Processed())
	}
	if e.Pending() == 0 {
		t.Error("budget exhaustion should leave the runaway event pending")
	}
	if !strings.Contains(err.Error(), "10 events processed") {
		t.Errorf("error should carry diagnostics, got %q", err)
	}
}

func TestMaxEventsRunUntil(t *testing.T) {
	e := NewEngine()
	selfRescheduling(e)
	e.SetMaxEvents(7)
	err := e.RunUntil(1e6)
	if !errors.Is(err, ErrMaxEvents) {
		t.Fatalf("RunUntil() = %v, want ErrMaxEvents", err)
	}
	if e.Processed() != 7 {
		t.Errorf("processed %d, want 7", e.Processed())
	}
}

// TestMaxEventsExactBudget: a run that finishes exactly at the budget is not
// an error — the guard only trips with events still pending.
func TestMaxEventsExactBudget(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.SetMaxEvents(5)
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil when the budget is exactly consumed", err)
	}
	if e.Processed() != 5 {
		t.Errorf("processed %d, want 5", e.Processed())
	}
}

func TestMaxEventsZeroMeansUnlimited(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			e.Schedule(0.001, tick)
		}
	}
	e.Schedule(0, tick)
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil without a budget", err)
	}
	if n != 1000 {
		t.Errorf("ran %d events, want 1000", n)
	}
}

// TestMaxEventsRunUntilHorizonFirst: when the horizon cuts the run before
// the budget does, RunUntil succeeds and advances the clock to the horizon.
func TestMaxEventsRunUntilHorizonFirst(t *testing.T) {
	e := NewEngine()
	selfRescheduling(e)
	e.SetMaxEvents(100)
	if err := e.RunUntil(0.45); err != nil { // events at 0, .1, .2, .3, .4 = 5 < 100
		t.Fatalf("RunUntil() = %v, want nil", err)
	}
	if e.Now() != 0.45 {
		t.Errorf("clock at %v, want 0.45", e.Now())
	}
}

// TestEngineTap: schedule, cancel and fire each show up in the telemetry
// stream with the right ids.
func TestEngineTap(t *testing.T) {
	var buf bytes.Buffer
	tap := telemetry.New(&buf, telemetry.LayerSim)
	e := NewEngine()
	e.SetTap(tap)

	a := e.Schedule(1, func() {})
	b := e.Schedule(2, func() {})
	e.Cancel(b)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tap.Flush()

	events, err := telemetry.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var scheduled, fired, cancelled []uint64
	for _, ev := range events {
		switch ev.Kind {
		case "schedule":
			scheduled = append(scheduled, ev.ID)
		case "fire":
			fired = append(fired, ev.ID)
		case "cancel":
			cancelled = append(cancelled, ev.ID)
		}
	}
	if len(scheduled) != 2 {
		t.Errorf("scheduled events: %v, want 2", scheduled)
	}
	if len(fired) != 1 || fired[0] != a.seq {
		t.Errorf("fired events: %v, want [%d]", fired, a.seq)
	}
	if len(cancelled) != 1 || cancelled[0] != b.seq {
		t.Errorf("cancelled events: %v, want [%d]", cancelled, b.seq)
	}
	if reg := tap.Registry(); reg.Counter("sim.scheduled") != 2 ||
		reg.Counter("sim.fired") != 1 || reg.Counter("sim.cancelled") != 1 {
		t.Errorf("registry counters wrong: scheduled=%d fired=%d cancelled=%d",
			reg.Counter("sim.scheduled"), reg.Counter("sim.fired"), reg.Counter("sim.cancelled"))
	}
}

// checkInvariants asserts the structural contract the cancel handles rely
// on: every event in the heap stores its own position, and every pooled
// event is marked out of the heap.
func checkInvariants(t *testing.T, e *Engine) {
	t.Helper()
	for i, ev := range e.queue {
		if ev.idx != i {
			t.Fatalf("event %d stores idx %d at heap position %d", ev.seq, ev.idx, i)
		}
	}
	for _, ev := range e.free {
		if ev.idx != -1 {
			t.Fatalf("pooled event %d stores idx %d", ev.seq, ev.idx)
		}
	}
}

// FuzzSchedule drives the engine with an arbitrary interleaving of
// Schedule, Cancel, TickerUntil, Step and Reset operations, then checks that
// the heap stays consistent, cancelled events and events dropped by Reset
// never fire, stale handles cancel nothing, and each run's events fire in
// nondecreasing time order with FIFO tie-breaking.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{0, 10, 0, 5, 1, 0, 2, 9})
	f.Add([]byte{2, 3, 2, 7, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 1, 0, 1, 0, 0, 255, 2, 128})
	f.Add([]byte{0, 3, 0, 9, 4, 0, 0, 4, 1, 0, 3, 0, 0, 2, 1, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, program []byte) {
		e := NewEngine()
		var (
			ids []EventID
			// dead marks the one-shots that must never fire: cancelled
			// while pending, or pending when Reset dropped them.
			dead      = map[EventID]bool{}
			fired     = map[EventID]int{}
			lastFired EventID
			fireTimes []Time
			fireSeqs  []int
		)
		order := 0
		record := func(id EventID) func() {
			return func() {
				fired[id]++
				lastFired = id
				fireTimes = append(fireTimes, e.Now())
				fireSeqs = append(fireSeqs, order)
				order++
			}
		}
		// checkOrder holds the events fired since the last Reset to
		// (time, FIFO) order and starts a new run.
		checkOrder := func() {
			for i := 1; i < len(fireTimes); i++ {
				if fireTimes[i] < fireTimes[i-1] {
					t.Fatalf("fire times regressed: %v then %v", fireTimes[i-1], fireTimes[i])
				}
				if fireSeqs[i] < fireSeqs[i-1] {
					t.Fatalf("fire order regressed at %d", i)
				}
			}
			fireTimes, fireSeqs = fireTimes[:0], fireSeqs[:0]
		}

		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i]%5, program[i+1]
			switch op {
			case 0: // schedule a one-shot
				delay := float64(arg) / 16
				var id EventID
				id = e.Schedule(delay, func() { record(id)() })
				// Assigning id after capture is safe: the closure reads it
				// at fire time, strictly after Schedule returns.
				ids = append(ids, id)
			case 1: // cancel an issued handle, pending or not, and the zero one
				if len(ids) > 0 {
					id := ids[int(arg)%len(ids)]
					e.Cancel(id)
					if fired[id] == 0 {
						dead[id] = true
					}
				}
				e.Cancel(EventID{}) // never issued
			case 2: // ticker with a bounded horizon
				start := e.Now() + float64(arg%8)
				interval := float64(arg%5+1) / 4
				until := e.Now() + float64(arg%16)
				e.TickerUntil(start, interval, until, func(at Time) {
					fireTimes = append(fireTimes, at)
					fireSeqs = append(fireSeqs, order)
					order++
				})
			case 3: // fire the next event, then cancel the last fired handle
				e.Step()
				e.Cancel(lastFired)
			case 4: // drop every pending event
				e.Reset()
				checkOrder()
				for _, id := range ids {
					if fired[id] == 0 {
						dead[id] = true
					}
				}
			}
			checkInvariants(t, e)
		}

		e.SetMaxEvents(100000) // tickers are bounded, but belt and braces
		if err := e.Run(); err != nil {
			t.Fatalf("Run() = %v", err)
		}
		checkInvariants(t, e)
		if e.Pending() != 0 {
			t.Fatalf("%d events pending after Run", e.Pending())
		}
		checkOrder()
		// Every one-shot still pending at a Cancel or Reset never fired;
		// every other one fired exactly once.
		for n, id := range ids {
			want := 1
			if dead[id] {
				want = 0
			}
			if fired[id] != want {
				t.Fatalf("one-shot %d fired %d times, want %d", n, fired[id], want)
			}
		}
	})
}
