package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// when len(xs) is even), or 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs that Python's
// statistics.quantiles(xs, n=4) returns with its default "exclusive"
// method, so the spread printed here is the spread an acceptance check
// computes from the same values. One sample is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p percent of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	r := int(math.Ceil(p / 100 * float64(len(s))))
	r = max(1, min(r, len(s)))
	return s[r-1]
}

// tailPercentile returns the highest whole percentile of n samples that
// still has at least ten samples above its nearest rank, the highest
// percentile such a sample supports; 0 means n is too small for any.
func tailPercentile(n int) int {
	for p := 99; p > 0; p-- {
		if n-int(math.Ceil(float64(p)/100*float64(n))) >= 10 {
			return p
		}
	}
	return 0
}

// repeat calls one(i) for inputs i = 0..n-1 in passes until dur has
// elapsed, always completing the first pass, and stops at the first error.
// Every input gets at least one repetition, and an input's repetitions are
// spread over the whole run, so a stretch of contention from other tenants
// of the machine (which slows this host's memory-bound runs by up to half
// for seconds at a time) disturbs only some of them.
func repeat(n int, dur time.Duration, one func(i int) error) error {
	start := time.Now()
	for pass := 0; ; pass++ {
		for i := 0; i < n; i++ {
			if pass > 0 && time.Since(start) >= dur {
				return nil
			}
			if err := one(i); err != nil {
				return err
			}
		}
		if time.Since(start) >= dur {
			return nil
		}
	}
}

// sample is one repetition of one input: its wall and CPU time and the
// packets it sent and delivered.
type sample struct {
	input           int64
	wall, cpu       time.Duration
	sent, delivered int
}

// fastest keeps each input's least-disturbed repetition, its shortest wall
// time and smallest CPU time: contention only ever adds time, so the
// fastest repetition is the closest a run gets to the program's own cost.
// The result is in input order.
func fastest(samples []sample) []sample {
	var out []sample
	at := map[int64]int{}
	for _, s := range samples {
		i, ok := at[s.input]
		if !ok {
			at[s.input] = len(out)
			out = append(out, s)
			continue
		}
		out[i].wall = min(out[i].wall, s.wall)
		out[i].cpu = min(out[i].cpu, s.cpu)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].input < out[b].input })
	return out
}

// costMetrics reports packets_per_s, cpu_us_per_packet and
// delivered_share from each input's fastest repetition.
func costMetrics(rep *report, samples []sample) {
	var rates []float64
	var wall time.Duration
	sent, delivered := 0, 0
	for _, s := range fastest(samples) {
		rates = append(rates, float64(s.sent)/secs(s.wall))
		wall += s.wall
		sent += s.sent
		delivered += s.delivered
	}
	// Throughput weights every input by its own cost: all packets over all
	// fastest run times.
	pps := medianOf(rates)
	pps.v = float64(sent) / secs(wall)
	rep.values["packets_per_s"] = pps
	rep.values["cpu_us_per_packet"] = one(cpuPerPacket(samples))
	rep.values["delivered_share"] = one(ratio(float64(delivered), float64(sent)))
}

// runMS is the median over inputs of each input's fastest wall time.
func runMS(samples []sample) value {
	var walls []float64
	for _, s := range fastest(samples) {
		walls = append(walls, ms(s.wall))
	}
	return medianOf(walls)
}

// cpuPerPacket is the CPU time per packet, in µs, of each input's fastest
// repetition: the headline cost a traced run is compared against.
func cpuPerPacket(samples []sample) float64 {
	var cpu time.Duration
	sent := 0
	for _, s := range fastest(samples) {
		cpu += s.cpu
		sent += s.sent
	}
	return ratio(us(cpu), float64(sent))
}

// tailNote states a timing sample's median and the highest percentile
// with at least ten samples beyond it, with the sample count.
func tailNote(what string, xs []float64) string {
	p := tailPercentile(len(xs))
	if p == 0 {
		return fmt.Sprintf("%s: median %.4g over %d samples, too few for a tail percentile", what, median(xs), len(xs))
	}
	return fmt.Sprintf("%s: median %.4g, p%d %.4g over %d samples", what, median(xs), p, percentile(xs, float64(p)), len(xs))
}

// ms, secs and us convert durations to the units the metrics are stated in.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }

// durations converts a duration sample to float64 values in unit u.
func durations(ds []time.Duration, u func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = u(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work on a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
