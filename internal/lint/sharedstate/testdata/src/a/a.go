// Fixture: single-goroutine simulation state crossing (or correctly not
// crossing) goroutine boundaries.
package a

import (
	"experiment"
	"metrics"
	"sim"
)

// goodWorkerLocal is the approved campaign-worker idiom: each goroutine
// creates its own arena, so nothing single-goroutine crosses the boundary.
func goodWorkerLocal(jobs int, next chan int) {
	for w := 0; w < jobs; w++ {
		go func() {
			arena := experiment.NewArena()
			for range next {
				arena.Use()
			}
		}()
	}
}

// badCapturedEngine shares one engine across goroutines.
func badCapturedEngine(eng *sim.Engine, done chan float64) {
	go func() {
		done <- eng.Now() // want `goroutine captures sim\.Engine "eng" from the enclosing scope`
	}()
}

// badCapturedArena shares one arena across goroutines.
func badCapturedArena(next chan int) {
	arena := experiment.NewArena()
	go func() {
		for range next {
			arena.Use() // want `goroutine captures experiment\.Arena "arena" from the enclosing scope`
		}
	}()
}

// badGoArg hands the slab to a goroutine as an argument.
func badGoArg(s *metrics.RecordSlab, reset func(*metrics.RecordSlab)) {
	go reset(s) // want `metrics\.RecordSlab passed to a goroutine`
}

// badChannelSend ships an engine between goroutines over a channel.
func badChannelSend(ch chan *sim.Engine, eng *sim.Engine) {
	ch <- eng // want `sim\.Engine sent on a channel`
}

// goodMessagePassing sends plain data, not substrate.
func goodMessagePassing(ch chan int, eng *sim.Engine) {
	ch <- int(eng.Now())
}

// goodPlainGoroutine captures nothing guarded.
func goodPlainGoroutine(results []float64, i int) {
	go func() {
		results[i] = 1
	}()
}

// annotated marks a reviewed synchronization site — a hand-off the author
// has designed deliberately — and is accepted.
func annotated(eng *sim.Engine, done chan float64) {
	//lint:allowsharedstate fixture: reviewed hand-off point, engine quiesced before the send
	go func() {
		done <- eng.Now()
	}()
}
