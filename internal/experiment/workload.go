// The workload driver: one send-scheduling loop for every traffic model.
//
// Each S-D pair's traffic is described by an arrivalProcess that only
// produces inter-send gaps; the driver owns the two stop conditions every
// workload shares — the Scenario.Duration send horizon and the optional
// Packets cap — so no traffic model can outlive the measurement window.
// After Duration the run drains for Scenario.DrainTime seconds (see
// World.Drain) to let in-flight packets finish, and nothing sends during
// the drain.

package experiment

import (
	"fmt"
	"math"

	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

// arrivalProcess produces the inter-send gaps of one pair's traffic. It
// carries the process state (burst phase, random stream); the driver owns
// all stop conditions.
type arrivalProcess interface {
	// First returns the delay from t=0 to the pair's first send.
	First() float64
	// Gap returns the delay from the send that just fired at time now to
	// the next send.
	Gap(now float64) float64
	// FixedInterval returns the constant inter-send gap for metronomic
	// processes (CBR), so the driver can ride sim's TickerUntil; variable
	// processes return 0, false.
	FixedInterval() (float64, bool)
}

// newArrivalProcess builds the scenario's traffic model for one pair. An
// empty Workload means CBR, the paper's model.
func newArrivalProcess(sc Scenario, src *rng.Source) arrivalProcess {
	switch sc.Workload {
	case Poisson:
		return &poissonProcess{mean: sc.Interval, src: src}
	case Burst:
		return &burstProcess{
			spacing:   sc.Interval / 2,
			meanBurst: 4.0, // seconds of talkspurt; off periods match
			offset:    src.Uniform(0, sc.Interval),
			src:       src,
		}
	default:
		return &cbrProcess{
			interval: sc.Interval,
			offset:   src.Uniform(0, sc.Interval/2),
		}
	}
}

// cbrProcess is the paper's constant-bit-rate stream: one packet every
// Interval seconds, pairs desynchronized by a random initial offset.
type cbrProcess struct {
	interval, offset float64
}

func (p *cbrProcess) First() float64                 { return p.offset }
func (p *cbrProcess) Gap(float64) float64            { return p.interval }
func (p *cbrProcess) FixedInterval() (float64, bool) { return p.interval, true }

// poissonProcess draws exponential gaps with mean Interval — the same
// long-run rate as CBR with memoryless arrivals.
type poissonProcess struct {
	mean float64
	src  *rng.Source
}

func (p *poissonProcess) First() float64                 { return p.src.Exponential(p.mean) }
func (p *poissonProcess) Gap(float64) float64            { return p.src.Exponential(p.mean) }
func (p *poissonProcess) FixedInterval() (float64, bool) { return 0, false }

// burstProcess alternates exponential on-periods (packets every Interval/2)
// with exponential off-periods of the same mean, keeping the long-run mean
// rate of one packet per Interval: multimedia frames arrive in talkspurts,
// not on a metronome.
type burstProcess struct {
	spacing   float64 // intra-burst packet gap
	meanBurst float64 // mean talkspurt and mean silence, seconds
	offset    float64 // delay before the first talkspurt
	src       *rng.Source
	end       float64 // absolute end of the current talkspurt
	started   bool
}

func (p *burstProcess) First() float64                 { return p.offset }
func (p *burstProcess) FixedInterval() (float64, bool) { return 0, false }

func (p *burstProcess) Gap(now float64) float64 {
	if !p.started {
		// The first send opened the first talkspurt.
		p.started = true
		p.end = now + p.src.Exponential(p.meanBurst)
	}
	if now+p.spacing < p.end {
		return p.spacing
	}
	// Talkspurt over: sit out an exponential silence, then open a new
	// talkspurt whose first packet sends immediately.
	gap := p.spacing + p.src.Exponential(p.meanBurst)
	p.end = now + gap + p.src.Exponential(p.meanBurst)
	return gap
}

// StartWorkload schedules the scenario's traffic model for each pair
// through the shared workload driver: CBR sends every Interval seconds;
// Poisson draws exponential gaps with mean Interval; Burst alternates
// exponential on-periods (packets every Interval/2) with exponential
// off-periods at the same long-run mean rate. Every model stops sending at
// Scenario.Duration (inclusive) or after Scenario.Packets per pair,
// whichever comes first.
func (w *World) StartWorkload(pairs []Pair) {
	w.drawWorkload(pairs, func(i int, payload []byte, p arrivalProcess) { w.startPair(pairs[i], payload, p) })
}

// drawWorkload draws, in the one order every substrate replays, the
// payload every packet carries, then each pair's traffic model from the
// pair's own stream, and hands the models to each in pair order.
func (w *World) drawWorkload(pairs []Pair, each func(i int, payload []byte, p arrivalProcess)) {
	payload := make([]byte, 64)
	w.Rand.Read(payload)
	for i := range pairs {
		each(i, payload, newArrivalProcess(w.Scenario, w.Rand.SplitIndex("pair", i)))
	}
}

// Flow is one S-D pair's CBR schedule: Packets sends from Offset on, one
// every Scenario.Interval. ID is the pair's index in ChoosePairs' draw.
type Flow struct {
	ID       uint32
	Src, Dst int
	Offset   float64
	Packets  int
}

// CBRFlows makes RunWorld's draws — ChoosePairs, then StartWorkload's —
// and returns the payload and the schedule of every pair that sends: the
// floor((Duration-Offset)/Interval)+1 sends StartWorkload's ticker fires
// by Duration, capped at Scenario.Packets.
func (w *World) CBRFlows() ([]Flow, []byte, error) {
	sc := w.Scenario
	if sc.Workload != "" && sc.Workload != CBR {
		return nil, nil, fmt.Errorf("experiment: only the CBR workload has a fixed schedule, got %q", sc.Workload)
	}
	pairs := w.ChoosePairs()
	var flows []Flow
	var payload []byte
	w.drawWorkload(pairs, func(i int, pl []byte, p arrivalProcess) {
		payload = pl
		n := int(math.Floor((sc.Duration-p.First())/sc.Interval)) + 1
		if sc.Packets > 0 {
			n = min(n, sc.Packets)
		}
		if n > 0 {
			flows = append(flows, Flow{ID: uint32(i), Src: int(pairs[i].S), Dst: int(pairs[i].D), Offset: p.First(), Packets: n})
		}
	})
	return flows, payload, nil
}

// startPair drives one pair's sends. This is the only send loop in the
// harness: the Duration horizon and the Packets cap are enforced here for
// every traffic model, so a workload cannot transmit into the drain phase.
func (w *World) startPair(pr Pair, payload []byte, p arrivalProcess) {
	sc := w.Scenario
	sent := 0
	// send fires one packet; it returns false once the Packets cap forbids
	// any further traffic.
	send := func() bool {
		if sc.Packets > 0 && sent >= sc.Packets {
			return false
		}
		sent++
		w.Proto.Send(pr.S, pr.D, payload)
		return sc.Packets <= 0 || sent < sc.Packets
	}
	if interval, fixed := p.FixedInterval(); fixed {
		// Metronomic traffic rides the engine's horizon-bounded ticker.
		var stop func()
		stop = w.Eng.TickerUntil(p.First(), interval, sc.Duration, func(sim.Time) {
			if !send() {
				stop()
			}
		})
		return
	}
	var fire func()
	fire = func() {
		if !send() {
			return
		}
		next := w.Eng.Now() + p.Gap(w.Eng.Now())
		if next > sc.Duration {
			return
		}
		w.Eng.At(next, fire)
	}
	if first := p.First(); first <= sc.Duration {
		w.Eng.At(first, fire)
	}
}
