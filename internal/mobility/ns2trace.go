// NS-2 movement-trace support: the paper's experiments ran on NS-2.29,
// whose setdest-format mobility files are the lingua franca of MANET
// research. ParseNS2 reads that format and yields a Model, so recorded or
// published scenarios can drive this simulator directly.
//
// Recognized lines (comments and unrelated commands are skipped):
//
//	$node_(7) set X_ 123.45
//	$node_(7) set Y_ 678.90
//	$ns_ at 12.5 "$node_(7) setdest 400.0 500.0 2.0"
//
// The third form sends node 7, starting at time 12.5, toward (400, 500) at
// 2.0 m/s; the node stops there until its next setdest.
package mobility

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"alertmanet/internal/geo"
)

// traceLeg is one commanded movement: from `start`, head toward `to` at
// `speed` beginning at time t0.
type traceLeg struct {
	t0    float64
	to    geo.Point
	speed float64
}

// TraceModel replays an NS-2 movement script.
type TraceModel struct {
	field   geo.Rect
	initial []geo.Point
	legs    [][]traceLeg // per node, sorted by t0
	// maxSpeed is the fastest setdest's speed. The script sets positions
	// only before the run, so no node moves faster.
	maxSpeed float64
}

// ParseNS2 reads an NS-2 setdest script. The node count is taken from the
// highest node index seen; field should be the scenario's area (positions
// are clamped to it).
func ParseNS2(r io.Reader, field geo.Rect) (*TraceModel, error) {
	initial := map[int]geo.Point{}
	legs := map[int][]traceLeg{}
	maxID := -1

	scan := bufio.NewScanner(r)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := strings.TrimSpace(scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "$node_("):
			// $node_(7) set X_ 123.45
			id, rest, err := parseNodeRef(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			fields := strings.Fields(rest)
			if len(fields) != 3 || fields[0] != "set" {
				continue // e.g. "set Z_ 0.0" handled below; unknown -> skip
			}
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad coordinate %q", lineNo, fields[2])
			}
			p := initial[id]
			switch fields[1] {
			case "X_":
				p.X = v
			case "Y_":
				p.Y = v
			case "Z_":
				// ignored: planar simulation
			default:
				continue
			}
			initial[id] = p
			if id > maxID {
				maxID = id
			}
		case strings.HasPrefix(line, "$ns_ at "):
			// $ns_ at 12.5 "$node_(7) setdest 400.0 500.0 2.0"
			rest := strings.TrimPrefix(line, "$ns_ at ")
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("line %d: malformed at-command", lineNo)
			}
			t0, err := strconv.ParseFloat(rest[:sp], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad time %q", lineNo, rest[:sp])
			}
			cmd := strings.Trim(strings.TrimSpace(rest[sp+1:]), `"`)
			if !strings.HasPrefix(cmd, "$node_(") {
				continue
			}
			id, body, err := parseNodeRef(cmd)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			fields := strings.Fields(body)
			if len(fields) != 4 || fields[0] != "setdest" {
				continue
			}
			var vals [3]float64
			for i, f := range fields[1:] {
				if vals[i], err = strconv.ParseFloat(f, 64); err != nil {
					return nil, fmt.Errorf("line %d: bad setdest arg %q", lineNo, f)
				}
			}
			if vals[2] < 0 {
				return nil, fmt.Errorf("line %d: negative speed", lineNo)
			}
			legs[id] = append(legs[id], traceLeg{
				t0: t0, to: geo.Point{X: vals[0], Y: vals[1]}, speed: vals[2],
			})
			if id > maxID {
				maxID = id
			}
		}
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	if maxID < 0 {
		return nil, fmt.Errorf("mobility: empty NS-2 trace")
	}

	m := &TraceModel{
		field:   field,
		initial: make([]geo.Point, maxID+1),
		legs:    make([][]traceLeg, maxID+1),
	}
	for id := 0; id <= maxID; id++ {
		m.initial[id] = field.Clamp(initial[id])
		ls := legs[id]
		sort.SliceStable(ls, func(i, j int) bool { return ls[i].t0 < ls[j].t0 })
		m.legs[id] = ls
		for _, l := range ls {
			// math.Max keeps a NaN speed, and a NaN bound prunes nothing.
			m.maxSpeed = math.Max(m.maxSpeed, l.speed)
		}
	}
	return m, nil
}

// parseNodeRef splits "$node_(7) rest..." into (7, "rest...").
func parseNodeRef(s string) (int, string, error) {
	s = strings.TrimPrefix(s, "$node_(")
	close := strings.IndexByte(s, ')')
	if close < 0 {
		return 0, "", fmt.Errorf("mobility: malformed node reference")
	}
	id, err := strconv.Atoi(s[:close])
	if err != nil || id < 0 {
		return 0, "", fmt.Errorf("mobility: bad node id %q", s[:close])
	}
	return id, strings.TrimSpace(s[close+1:]), nil
}

// Position implements Model: replay the setdest commands up to time t.
func (m *TraceModel) Position(id int, t float64) geo.Point {
	pos := m.initial[id]
	legs := m.legs[id]
	for i, leg := range legs {
		if leg.t0 >= t {
			break
		}
		// This leg runs from leg.t0 until the next setdest preempts it
		// (or until the query time, whichever is earlier).
		end := t
		if i+1 < len(legs) && legs[i+1].t0 < end {
			end = legs[i+1].t0
		}
		elapsed := end - leg.t0
		d := pos.Dist(leg.to)
		if leg.speed <= 0 || d == 0 || elapsed <= 0 {
			continue
		}
		travel := leg.speed * elapsed
		if travel >= d {
			pos = leg.to
		} else {
			pos = pos.Lerp(leg.to, travel/d)
		}
	}
	return m.field.Clamp(pos)
}

// N implements Model.
func (m *TraceModel) N() int { return len(m.initial) }

// Field implements Model.
func (m *TraceModel) Field() geo.Rect { return m.field }

// MaxSpeed implements Model.
func (m *TraceModel) MaxSpeed() float64 { return m.maxSpeed }
