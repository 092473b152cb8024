// Package sim provides the discrete-event simulation engine that stands in
// for NS-2 in this reproduction: a virtual clock and a pending-event queue.
// All protocol stacks, mobility sampling, radio transmission delays, and
// cryptography cost charging run on this clock, so an entire 100-second
// evaluation scenario executes in milliseconds of wall time and is exactly
// reproducible from its seed.
//
// The event loop is sequential. The only parallelism is For, a fork-join
// over pure per-index loops that the world build uses on large fields; see
// the "Parallel sweeps" section of DESIGN.md.
package sim

import (
	"errors"
	"fmt"
	"math"

	"alertmanet/internal/telemetry"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// EventID is a handle on a scheduled event, for Cancel. The zero value
// names no event.
type EventID struct {
	ev  *event
	seq uint64
}

// Runner is a pre-allocated alternative to a func() event body: an event
// scheduled with AtRunner calls RunEvent on fire. Hot-path callers (the
// medium's ARQ, router forwarding) implement it on pooled state machines so
// scheduling a hop costs no closure allocation.
type Runner interface {
	RunEvent()
}

type event struct {
	at  Time
	seq uint64 // FIFO tie-break for simultaneous events, unique per engine
	fn  func()
	run Runner // non-nil takes precedence over fn
	idx int    // index in the heap, -1 once out of it
}

// eventHeap is a binary min-heap on (at, seq); every event stores its
// position in idx.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	//lint:allowfloatcompare heap ordering on stored timestamps: values are copied, never recomputed, and ties must fall through to the FIFO seq tie-break exactly
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts position i0 down and reports whether it moved.
func (h eventHeap) down(i0 int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(ev *event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.up(ev.idx)
}

// remove takes the event at position i out of the heap and sets its idx to
// −1, so its handle cancels nothing, not even while its body runs.
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*h = old[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	ev.idx = -1
	return ev
}

// Engine is a discrete-event scheduler; construct it with NewEngine. Events
// execute one at a time in (time, seq) order off a single binary heap.
//
// An EventID holds its event's struct and seq. Every struct outside the
// heap has idx −1, and seq never repeats in one engine, not even across
// Reset, so Cancel acts only on the event the handle was issued for and
// only while that event is pending; a struct reused from the free pool
// carries a new seq.
type Engine struct {
	now Time
	seq uint64
	// base is seq at the last Reset; telemetry numbers each run's events
	// from 1.
	base  uint64
	queue eventHeap
	// Processed counts events executed; useful for progress accounting
	// and loop-protection in tests.
	processed uint64
	// maxEvents, when non-zero, bounds processed events: Run and RunUntil
	// return ErrMaxEvents instead of executing past the budget, so a
	// self-rescheduling event loop fails a test instead of hanging it.
	maxEvents uint64
	// tap, when non-nil, observes every schedule/fire/cancel.
	tap *telemetry.Tap
	// free recycles fired and cancelled event structs; steady-state
	// scheduling allocates nothing once the pool has warmed up.
	free []*event
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Reset returns the engine to the NewEngine state — clock at 0, no pending
// events, no tap, no budget — while keeping its allocated capacity (heap
// backing array, event free pool). Campaign workers reuse one
// engine across seeds so successive runs stop paying the warm-up
// allocations of a fresh engine.
func (e *Engine) Reset() {
	for _, ev := range e.queue {
		e.recycle(ev)
	}
	e.queue = e.queue[:0]
	e.base = e.seq
	e.now = 0
	e.processed = 0
	e.maxEvents = 0
	e.tap = nil
}

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int { return len(e.queue) }

// Processed returns how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetTap attaches a telemetry tap observing every schedule, fire and
// cancel. A nil tap (the default) disables engine telemetry; every emit
// site is guarded by a branch on the field, so the disabled path costs one
// predictable branch and no allocation.
func (e *Engine) SetTap(t *telemetry.Tap) { e.tap = t }

// ErrMaxEvents reports that an engine exceeded its SetMaxEvents budget with
// events still pending — almost always a self-rescheduling event loop.
var ErrMaxEvents = errors.New("sim: event budget exhausted")

// SetMaxEvents bounds the total number of events the engine will execute
// (0, the default, means unlimited). The budget is checked by Run and
// RunUntil, which return ErrMaxEvents rather than executing past it — the
// backstop that turns a runaway scheduling loop into a test failure instead
// of a hang.
func (e *Engine) SetMaxEvents(max uint64) { e.maxEvents = max }

// budgetErr returns the error for an exhausted event budget, nil while the
// budget (if any) has room.
func (e *Engine) budgetErr() error {
	if e.maxEvents > 0 && e.processed >= e.maxEvents {
		return fmt.Errorf("%w: %d events processed, %d still pending at t=%v",
			ErrMaxEvents, e.processed, len(e.queue), e.now)
	}
	return nil
}

// checkDelay panics on a negative or NaN delay.
func (e *Engine) checkDelay(delay Time) {
	if delay < 0 || math.IsNaN(delay) {
		//lint:allowpanic scheduling into the past is always a protocol-logic bug; no caller can meaningfully recover mid-event
		panic(fmt.Sprintf("sim: schedule with invalid delay %v at t=%v", delay, e.now))
	}
}

// Schedule runs fn after the given delay (>= 0). Scheduling into the past
// panics: that is always a protocol-logic bug.
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	e.checkDelay(delay)
	return e.At(e.now+delay, fn)
}

// At runs fn at the absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) EventID {
	return e.schedule(t, fn, nil)
}

// ScheduleRunner runs r after the given delay (>= 0), like Schedule but
// without a closure: the event struct comes from the engine's free pool and
// the body is a pre-allocated Runner, so the call is allocation-free in
// steady state.
func (e *Engine) ScheduleRunner(delay Time, r Runner) EventID {
	e.checkDelay(delay)
	return e.AtRunner(e.now+delay, r)
}

// AtRunner runs r at the absolute time t (>= Now); the Runner counterpart
// of At.
func (e *Engine) AtRunner(t Time, r Runner) EventID {
	return e.schedule(t, nil, r)
}

func (e *Engine) schedule(t Time, fn func(), r Runner) EventID {
	if t < e.now {
		//lint:allowpanic scheduling into the past is always a protocol-logic bug; no caller can meaningfully recover mid-event
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = event{at: t, seq: e.seq, fn: fn, run: r}
	} else {
		ev = &event{at: t, seq: e.seq, fn: fn, run: r}
	}
	e.queue.push(ev)
	if e.tap != nil {
		e.tap.SimScheduled(e.now, t, ev.seq-e.base)
	}
	return EventID{ev: ev, seq: ev.seq}
}

// recycle returns an event struct to the free pool, dropping its body
// references so they can be collected, and marks it out of the heap.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.run = nil
	ev.idx = -1
	e.free = append(e.free, ev)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event, or the zero EventID, is a no-op.
func (e *Engine) Cancel(id EventID) {
	ev := id.ev
	if ev == nil || ev.seq != id.seq || ev.idx < 0 {
		return
	}
	e.queue.remove(ev.idx)
	e.recycle(ev)
	if e.tap != nil {
		e.tap.SimCancelled(e.now, id.seq-e.base)
	}
}

// execute pops the head of the queue and runs its body.
func (e *Engine) execute() {
	ev := e.queue.remove(0)
	e.now = ev.at
	e.processed++
	if e.tap != nil {
		e.tap.SimFired(e.now, ev.seq-e.base)
	}
	if ev.run != nil {
		ev.run.RunEvent()
	} else {
		ev.fn()
	}
	// The body has returned. The event left the heap with idx −1, so its
	// handle could not cancel it while the body ran, and cannot once the
	// struct is reused.
	e.recycle(ev)
}

// Step executes the next event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.execute()
	return true
}

// Run executes events until none remain, or until the SetMaxEvents budget
// (if any) is exhausted with events still pending, in which case it stops
// and returns ErrMaxEvents.
func (e *Engine) Run() error {
	for len(e.queue) > 0 {
		if err := e.budgetErr(); err != nil {
			return err
		}
		e.execute()
	}
	return nil
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to exactly t. Events scheduled later remain pending. Like Run, it stops
// with ErrMaxEvents when the SetMaxEvents budget runs out before the
// horizon is reached.
func (e *Engine) RunUntil(t Time) error {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		if err := e.budgetErr(); err != nil {
			return err
		}
		e.execute()
	}
	if t > e.now {
		e.now = t
	}
	return nil
}

// Ticker schedules fn every interval seconds starting at start, until the
// returned stop function is called. fn receives the firing time.
func (e *Engine) Ticker(start, interval Time, fn func(Time)) (stop func()) {
	return e.TickerUntil(start, interval, math.Inf(1), fn)
}

// TickerUntil schedules fn every interval seconds starting at start, while
// the firing time stays <= until (a tick landing exactly on the horizon
// still fires). The returned stop function cancels the remaining ticks
// early. Workload generators use this to guarantee no traffic past a
// scenario's send horizon.
func (e *Engine) TickerUntil(start, interval, until Time, fn func(Time)) (stop func()) {
	if interval <= 0 {
		//lint:allowpanic a non-positive interval would loop the engine at the current instant forever; always a caller bug
		panic("sim: ticker interval must be positive")
	}
	stopped := false
	var id EventID
	var tick func()
	// last is the index of the final firing: the largest n such that
	// start + n*interval <= until, i.e. the workload count contract
	// floor((until-start)/interval) pinned in the CBR tests. Termination is
	// derived from this index, not from the accumulated firing time, so
	// float drift in `at` can no longer add or drop a tick near the
	// horizon on long runs. The firing instants themselves still
	// accumulate (clamped to the horizon), preserving the established
	// event timeline.
	last := math.Floor((until - start) / interval)
	n := 0.0
	at := start
	tick = func() {
		if stopped {
			return
		}
		fn(e.now)
		if n >= last {
			return
		}
		n++
		at += interval
		if at > until {
			at = until
		}
		id = e.At(at, tick)
	}
	if start > until {
		return func() { stopped = true }
	}
	id = e.At(start, tick)
	return func() {
		stopped = true
		e.Cancel(id)
	}
}
