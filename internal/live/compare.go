// Sim-vs-live comparison with explicit tolerance bands. The live fleet
// replays the simulator's exact flow schedule on its exact trajectories, so
// the sent count must match exactly; delivery rate, latency and hop counts
// are stochastic in transport order (UDP interleaving perturbs ARQ and
// perimeter entry points) and get banded checks instead. A Comparison is
// the machine-readable verdict alertload's exit status and the acceptance
// test both consume.

package live

import (
	"fmt"
	"math"
	"strings"

	"alertmanet/internal/experiment"
)

// Check is one banded (or exact) metric comparison.
type Check struct {
	Name string  `json:"name"`
	Sim  float64 `json:"sim"`
	Live float64 `json:"live"`
	// Tol is the allowed deviation; Rel says whether it is relative to the
	// sim value or absolute.
	Tol float64 `json:"tol"`
	Rel bool    `json:"rel"`
	OK  bool    `json:"ok"`
}

func (c Check) deviation() float64 {
	d := math.Abs(c.Sim - c.Live)
	if c.Rel {
		if c.Sim == 0 {
			if c.Live == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return d / math.Abs(c.Sim)
	}
	return d
}

// Comparison is the full verdict; OK is the conjunction of every check.
type Comparison struct {
	Checks []Check `json:"checks"`
	OK     bool    `json:"ok"`
}

// Compare verifies a live Summary against the sim Result for the same
// scenario. The live transport reorders contention and ARQ timing relative
// to the event queue, so latency and hops get relative bands; delivery on
// a connected field should track closely, so it gets an absolute one.
func Compare(sim experiment.Result, lv Summary) Comparison {
	const (
		deliveryAbs = 0.10 // |sim − live| delivery rate
		latencyRel  = 0.30 // relative mean-latency deviation
		hopsRel     = 0.30 // relative hops-per-packet deviation
	)
	checks := []Check{
		// The flow schedule is derived from the same rng stream on both
		// sides; a sent-count mismatch means the replay itself is broken,
		// not that transport noise intervened.
		{Name: "sent", Sim: float64(sim.Sent), Live: float64(lv.Sent), Tol: 0},
		{Name: "delivery-rate", Sim: sim.DeliveryRate, Live: lv.DeliveryRate, Tol: deliveryAbs},
		{Name: "mean-latency", Sim: sim.MeanLatency, Live: lv.MeanLatency, Tol: latencyRel, Rel: true},
		{Name: "hops-per-packet", Sim: sim.HopsPerPacket, Live: lv.HopsPerPkt, Tol: hopsRel, Rel: true},
	}
	cmp := Comparison{OK: true}
	for _, c := range checks {
		c.OK = c.deviation() <= c.Tol
		cmp.OK = cmp.OK && c.OK
		cmp.Checks = append(cmp.Checks, c)
	}
	return cmp
}

// String renders the comparison as a fixed-width table for logs.
func (cmp Comparison) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %12s %12s %10s %6s\n", "metric", "sim", "live", "tol", "ok")
	for _, c := range cmp.Checks {
		tol := fmt.Sprintf("%.3g", c.Tol)
		if c.Rel {
			tol = fmt.Sprintf("%.0f%%", c.Tol*100)
		}
		fmt.Fprintf(&sb, "%-16s %12.4f %12.4f %10s %6v\n", c.Name, c.Sim, c.Live, tol, c.OK)
	}
	fmt.Fprintf(&sb, "overall: %v\n", cmp.OK)
	return sb.String()
}
