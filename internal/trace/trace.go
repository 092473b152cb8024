// Package trace renders simulation state for humans: an ASCII map of the
// network field with a packet's route, the destination zone, and the
// endpoints — the visual counterpart of the paper's Figs. 1-3.
package trace

import (
	"fmt"
	"strings"

	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
)

// Canvas is a character raster over the network field.
type Canvas struct {
	field geo.Rect
	w, h  int
	cells []byte
}

// NewCanvas creates a w x h character canvas spanning the field. A canvas
// needs at least 2x2 cells and a non-empty field to span; anything smaller
// is an error.
func NewCanvas(field geo.Rect, w, h int) (*Canvas, error) {
	if w < 2 || h < 2 || field.Empty() {
		return nil, fmt.Errorf("trace: degenerate canvas %dx%d over %v", w, h, field)
	}
	c := &Canvas{field: field, w: w, h: h, cells: make([]byte, w*h)}
	for i := range c.cells {
		c.cells[i] = ' '
	}
	return c, nil
}

// cell maps a field position to raster coordinates (y axis flipped so north
// is up).
func (c *Canvas) cell(p geo.Point) (int, int, bool) {
	if !c.field.Contains(p) {
		return 0, 0, false
	}
	fx := (p.X - c.field.Min.X) / c.field.Width()
	fy := (p.Y - c.field.Min.Y) / c.field.Height()
	x := int(fx * float64(c.w-1))
	y := c.h - 1 - int(fy*float64(c.h-1))
	return x, y, true
}

// Mark draws ch at the field position p; later marks win.
func (c *Canvas) Mark(p geo.Point, ch byte) {
	if x, y, ok := c.cell(p); ok {
		c.cells[y*c.w+x] = ch
	}
}

// MarkIfEmpty draws ch only where nothing has been drawn yet.
func (c *Canvas) MarkIfEmpty(p geo.Point, ch byte) {
	if x, y, ok := c.cell(p); ok && c.cells[y*c.w+x] == ' ' {
		c.cells[y*c.w+x] = ch
	}
}

// Outline traces the border of a sub-rectangle with ch (only on empty
// cells, so routes stay visible over zone borders).
func (c *Canvas) Outline(r geo.Rect, ch byte) {
	steps := 2 * (c.w + c.h)
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		edges := []geo.Point{
			{X: r.Min.X + t*r.Width(), Y: r.Min.Y},
			{X: r.Min.X + t*r.Width(), Y: r.Max.Y},
			{X: r.Min.X, Y: r.Min.Y + t*r.Height()},
			{X: r.Max.X, Y: r.Min.Y + t*r.Height()},
		}
		for _, p := range edges {
			c.MarkIfEmpty(c.field.Clamp(p), ch)
		}
	}
}

// String renders the canvas with a border.
func (c *Canvas) String() string {
	var b strings.Builder
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", c.w))
	b.WriteString("+\n")
	for y := 0; y < c.h; y++ {
		b.WriteByte('|')
		b.Write(c.cells[y*c.w : (y+1)*c.w])
		b.WriteString("|\n")
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", c.w))
	b.WriteString("+\n")
	return b.String()
}

// RouteMap renders a packet's journey: every node as '.', the route's
// relays numbered in hop order (1-9, then 'a'-'z'), S and D, and the
// destination zone outline. It fails on a degenerate canvas (see NewCanvas).
func RouteMap(field geo.Rect, positions []geo.Point, path []medium.NodeID,
	src, dst medium.NodeID, zd geo.Rect, w, h int) (string, error) {
	c, err := NewCanvas(field, w, h)
	if err != nil {
		return "", err
	}
	c.Outline(zd, '#')
	for _, p := range positions {
		c.MarkIfEmpty(p, '.')
	}
	hop := 0
	seen := map[medium.NodeID]bool{}
	for _, id := range path {
		if id == src || id == dst || seen[id] {
			continue
		}
		seen[id] = true
		hop++
		c.Mark(positions[id], hopGlyph(hop))
	}
	c.Mark(positions[src], 'S')
	c.Mark(positions[dst], 'D')
	return c.String(), nil
}

func hopGlyph(hop int) byte {
	switch {
	case hop < 10:
		return byte('0' + hop)
	case hop < 36:
		return byte('a' + hop - 10)
	default:
		return '*'
	}
}
