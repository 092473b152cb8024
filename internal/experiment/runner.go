// The cell-runner seam between the figure generators and whatever executes
// their simulation cells. A figure enumerates every (Scenario, seed) run it
// needs, hands the whole batch to a Runner, and reduces the returned
// Results; how the cells actually execute — serially, across a worker pool,
// against a content-addressed cache, resumed from a killed campaign — is
// the Runner's business. internal/campaign's Engine is the one executor:
// its zero value runs a batch across a worker pool, and a Store and Cache
// add persistence, deduplication and resume.

package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"alertmanet/internal/geo"
	"alertmanet/internal/mobility"
	"alertmanet/internal/rng"
)

// Runner executes figure cells. Both methods take the complete batch a
// figure needs and return results aligned index-for-index with the input,
// so a reduction can walk cells and results in lockstep. Implementations
// must be order-preserving and deterministic: the same batch yields the
// same results regardless of execution interleaving.
type Runner interface {
	// RunBatch executes full simulation cells; each Scenario carries its
	// own Seed.
	RunBatch(cells []Scenario) ([]Result, error)
	// RemainingBatch executes mobility-only destination-zone cells (the
	// Figs. 12-13 family, which samples node movement without routing).
	RemainingBatch(cells []RemainingSpec) ([]RemainingResult, error)
}

// RemainingSpec is one mobility-only cell: count how many of the nodes
// initially inside destination zones are still inside at each sample time,
// for one seed. It is self-contained (field and group parameters included)
// so its Hash identifies the cell the way Scenario.Hash identifies a run.
type RemainingSpec struct {
	Seed       int64
	N          int
	H          int
	Speed      float64
	Mobility   MobilityName
	Field      geo.Rect
	Groups     int
	GroupRange float64
	Times      []float64
	Dests      int
}

// Hash returns a hex SHA-256 content hash of the spec — the cell identity a
// campaign store keys results by, mirroring Scenario.Hash.
func (spec RemainingSpec) Hash() string {
	// RemainingSpec is plain marshalable data, like Scenario.
	buf, err := json.Marshal(spec)
	if err != nil {
		//lint:allowpanic a non-marshalable RemainingSpec is a compile-time-shape bug, not a runtime condition
		panic(fmt.Sprintf("experiment: hash remaining spec: %v", err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// RemainingResult is one RemainingSpec cell's outcome: Sums[i] is the total
// remaining-node count at Times[i] summed over the spec's destination zones,
// and Count is how many zones started non-empty (the denominator when
// averaging across seeds). Both are exact integer-valued quantities, so
// aggregating per-seed results reproduces the pre-campaign pooled loop
// bit-for-bit.
type RemainingResult struct {
	Sums  []float64 `json:"sums"`
	Count int       `json:"count"`
}

// RunRemaining executes one mobility-only cell.
func RunRemaining(spec RemainingSpec) (RemainingResult, error) {
	if spec.N < 1 {
		return RemainingResult{}, fmt.Errorf("experiment: remaining cell needs at least one node, got %d", spec.N)
	}
	if spec.Field.Empty() {
		return RemainingResult{}, fmt.Errorf("experiment: remaining cell has empty field %v", spec.Field)
	}
	src := rng.New(spec.Seed)
	var m mobility.Model
	switch spec.Mobility {
	case GroupMobility:
		m = mobility.NewGroupMobility(spec.Field, spec.N, spec.Groups,
			spec.GroupRange, spec.Speed, nil, src)
	default:
		m = mobility.NewRandomWaypoint(spec.Field, spec.N, spec.Speed, nil, src)
	}
	res := RemainingResult{Sums: make([]float64, len(spec.Times))}
	pick := src.Split("dests")
	var initial []int // reused across destination zones
	for di := 0; di < spec.Dests; di++ {
		d := pick.Intn(spec.N)
		zone := geo.DestZone(spec.Field, m.Position(d, 0), spec.H, geo.Vertical)
		initial = mobility.NodesInInto(m, zone, 0, initial)
		if len(initial) == 0 {
			continue
		}
		res.Count++
		for ti, t := range spec.Times {
			remain := 0
			for _, id := range initial {
				if zone.Contains(m.Position(id, t)) {
					remain++
				}
			}
			res.Sums[ti] += float64(remain)
		}
	}
	return res, nil
}
