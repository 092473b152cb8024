// Fixture: a stand-in for an engine substrate package (final path element
// "medium" matches internal/medium), where the hardened rule applies —
// every go statement and channel send needs a reviewed annotation, whatever
// types it moves.
package medium

// badPlainGoroutine moves no guarded type at all, but lives in a substrate
// package: still a synchronization site.
func badPlainGoroutine(results []float64, i int) {
	go func() { // want `goroutine in engine substrate package medium`
		results[i] = 1
	}()
}

// badPlainSend likewise: a bare int crossing a channel inside the substrate
// is a hand-off the determinism contract needs to see reviewed.
func badPlainSend(next chan int, i int) {
	next <- i // want `channel send in engine substrate package medium`
}

// goodAnnotatedWorker is the fork-join shape sim.For uses: reviewed,
// annotated, accepted.
func goodAnnotatedWorker(results []float64, done chan int) {
	//lint:allowsharedstate fixture: fork-join worker writes disjoint ranges, joined before return
	go func() {
		results[0] = 1
		//lint:allowsharedstate fixture: completion token only, no simulation state crosses
		done <- 1
	}()
}
