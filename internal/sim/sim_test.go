package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(2.5, func() { at = e.Now() })
	e.Run()
	if at != 2.5 {
		t.Fatalf("event saw clock %v, want 2.5", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(1, func() { fired = true })
	e.Cancel(id)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and cancel-after-run are no-ops.
	e.Cancel(id)
	if e.Pending() != 0 {
		t.Fatal("pending count wrong after cancel")
	}
	// So is a stale handle whose struct a later event reuses: fire a, then
	// schedule b into a's pooled struct.
	a := e.Schedule(1, func() {})
	e.Run()
	bFired := false
	b := e.Schedule(1, func() { bFired = true })
	if b.ev != a.ev {
		t.Fatal("b did not reuse a's pooled struct")
	}
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Fatalf("cancelling a fired handle left %d events pending, want 1", e.Pending())
	}
	e.Run()
	if !bFired {
		t.Fatal("cancelling a fired handle cancelled the event that reused its struct")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var fired []int
	ids := make([]EventID, 10)
	for i := 0; i < 10; i++ {
		i := i
		ids[i] = e.Schedule(Time(i), func() { fired = append(fired, i) })
	}
	e.Cancel(ids[4])
	e.Cancel(ids[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatal("remaining events did not run")
	}
	if e.Now() != 10 {
		t.Fatalf("clock should advance to 10, got %v", e.Now())
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(2, func() { fired = true })
	e.RunUntil(2)
	if !fired {
		t.Fatal("event at exactly the horizon must fire")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past should panic")
		}
	}()
	e.At(1, func() {})
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	stop := e.Ticker(1, 2, func(now Time) { ticks = append(ticks, now) })
	e.Schedule(7.5, stop)
	e.RunUntil(20)
	want := []Time{1, 3, 5, 7}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerUntilStopsAtHorizon(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.TickerUntil(1, 2, 7, func(now Time) { ticks = append(ticks, now) })
	e.RunUntil(100)
	// The tick landing exactly on the horizon fires; nothing after it does.
	want := []Time{1, 3, 5, 7}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending past the horizon", e.Pending())
	}
}

func TestTickerUntilStopCancels(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	stop := e.TickerUntil(1, 1, 50, func(now Time) { ticks = append(ticks, now) })
	e.Schedule(3.5, stop)
	e.RunUntil(100)
	if len(ticks) != 3 {
		t.Fatalf("ticks after stop(): %v", ticks)
	}
	// Stopping twice is a no-op.
	stop()
	if e.Pending() != 0 {
		t.Fatal("stopped ticker left events pending")
	}
	// Stopping from inside a tick, as a capped workload does, cancels
	// nothing else: the firing event is already out of the heap.
	fired, others := 0, 0
	stop = e.TickerUntil(101, 1, 150, func(Time) {
		fired++
		e.Schedule(0.5, func() { others++ })
		if fired == 2 {
			stop()
		}
	})
	e.RunUntil(200)
	if fired != 2 || others != 2 || e.Pending() != 0 {
		t.Fatalf("ticker stopped in its own tick: %d ticks, %d other events fired, %d pending; want 2, 2, 0",
			fired, others, e.Pending())
	}
}

func TestTickerUntilStartPastHorizon(t *testing.T) {
	e := NewEngine()
	fired := false
	stop := e.TickerUntil(5, 1, 2, func(Time) { fired = true })
	e.RunUntil(100)
	if fired {
		t.Fatal("ticker starting past its horizon fired")
	}
	stop() // must be callable without effect
}

func TestTickerIsUnboundedTickerUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	stop := e.Ticker(0.5, 1, func(Time) { n++ })
	e.RunUntil(1000)
	if n != 1000 {
		t.Fatalf("unbounded ticker fired %d times in 1000 s", n)
	}
	stop()
	if e.Pending() != 0 {
		t.Fatal("stop left events pending")
	}
}

// TestTickerUntilCountContract pins the workload count contract over long
// horizons and non-dyadic intervals: a ticker from start to until at a given
// interval fires exactly floor((until-start)/interval)+1 times, and never
// past the horizon. The naive at += interval accumulation drifts by one ULP
// per tick; over thousands of ticks of 0.1 or 0.3 the accumulated value
// crosses the horizon early (or lands past it) and the final tick vanishes,
// silently shorting every CBR pair by one packet.
func TestTickerUntilCountContract(t *testing.T) {
	cases := []struct{ start, interval, until Time }{
		{0.1, 0.1, 1000},   // naive drift fires 9999 times, dropping the final tick
		{0, 0.3, 3000},     // naive drift: 10000 of 10001
		{0.25, 0.05, 3000}, // naive drift: 59995 of 59996
		{0.7, 0.1, 100},    // naive drift fires ONE EXTRA, past the horizon
		{1, 3, 299998},     // exact integers over 1e5 ticks: must stay exact
		{0.3, 0.3, 0.8999}, // horizon just short of the third tick
	}
	for _, c := range cases {
		e := NewEngine()
		n := 0
		var last Time
		e.TickerUntil(c.start, c.interval, c.until, func(now Time) {
			n++
			last = now
		})
		e.RunUntil(c.until + c.interval)
		want := int(math.Floor(float64((c.until-c.start)/c.interval))) + 1
		if n != want {
			t.Errorf("TickerUntil(%v, %v, %v) fired %d times, want floor((until-start)/interval)+1 = %d",
				c.start, c.interval, c.until, n, want)
		}
		if last > c.until {
			t.Errorf("TickerUntil(%v, %v, %v) fired at %v, past the horizon",
				c.start, c.interval, c.until, last)
		}
		if e.Pending() != 0 {
			t.Errorf("TickerUntil(%v, %v, %v) left %d events pending",
				c.start, c.interval, c.until, e.Pending())
		}
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval must panic")
		}
	}()
	e.Ticker(0, 0, func(Time) {})
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("processed = %d", e.Processed())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine should return false")
	}
}

// Property: with arbitrary delays, events fire in nondecreasing time order
// and the engine processes all of them.
func TestQuickEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return e.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		e := NewEngine()
		fired := map[int]bool{}
		ids := make([]EventID, len(delays))
		for i, d := range delays {
			i := i
			ids[i] = e.Schedule(Time(d), func() { fired[i] = true })
		}
		cancelled := map[int]bool{}
		for i := range delays {
			if i < len(mask) && mask[i] {
				e.Cancel(ids[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := range delays {
			if cancelled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Reset must return a used engine to the NewEngine state — clock, counters,
// budget and pending events cleared — and recycle every pending event.
func TestReset(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		e.Schedule(5, func() {})
	})
	stale := e.Schedule(3, func() {})
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	e.SetMaxEvents(1)
	free := len(e.free)
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 || e.Processed() != 0 {
		t.Fatalf("Reset left pending=%d now=%v processed=%d", e.Pending(), e.Now(), e.Processed())
	}
	if got := len(e.free); got != free+2 {
		t.Fatalf("Reset recycled %d pending events, want 2", got-free)
	}
	// A handle issued before the reset cancels nothing, before and after
	// its struct is reused.
	e.Cancel(stale)
	checkInvariants(t, e)
	// The engine is usable afterwards, with the budget gone.
	ran := 0
	e.Schedule(1, func() { ran++ })
	e.Schedule(2, func() { ran++ })
	e.Cancel(stale)
	checkInvariants(t, e)
	if err := e.Run(); err != nil || ran != 2 {
		t.Fatalf("post-Reset run: err=%v ran=%d", err, ran)
	}
}

// The free-pool conservation contract: schedule/cancel/run cycles —
// including children scheduled inside an event and cancelled before they
// fire — return every event struct to the pool, so steady-state cycles
// neither grow the pool nor allocate.
func TestPoolConservation(t *testing.T) {
	e := NewEngine()
	ids := make([]EventID, 0, 128)
	cycle := func() {
		ids = ids[:0]
		for i := 0; i < 96; i++ {
			delay := float64(i%11) / 8
			id := e.Schedule(delay, func() {
				child := e.Schedule(0.25+delay, func() {})
				if i%3 == 0 {
					e.Cancel(child)
				}
			})
			ids = append(ids, id)
		}
		for i := 0; i < len(ids); i += 4 {
			e.Cancel(ids[i])
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events pending after cycle", e.Pending())
		}
	}
	cycle()
	base := len(e.free)
	if base == 0 {
		t.Fatal("warm-up cycle left an empty pool")
	}
	for i := 0; i < 50; i++ {
		cycle()
		if got := len(e.free); got != base {
			t.Fatalf("cycle %d: free pool %d, want steady-state %d", i, got, base)
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97)+0.5, func() {})
		}
		e.Run()
	}
}

func BenchmarkTickerChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		stop := e.Ticker(0.5, 1, func(Time) {})
		e.RunUntil(1000)
		stop()
	}
}
