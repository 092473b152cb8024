package trace

import (
	"strings"
	"testing"

	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
)

var field = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

func mustCanvas(t *testing.T, field geo.Rect, w, h int) *Canvas {
	t.Helper()
	c, err := NewCanvas(field, w, h)
	if err != nil {
		t.Fatalf("NewCanvas(%dx%d): %v", w, h, err)
	}
	return c
}

func TestCanvasBasics(t *testing.T) {
	c := mustCanvas(t, field, 20, 10)
	c.Mark(geo.Point{X: 0, Y: 0}, 'A')       // bottom-left
	c.Mark(geo.Point{X: 1000, Y: 1000}, 'B') // top-right
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 { // 10 rows + 2 borders
		t.Fatalf("lines = %d", len(lines))
	}
	// Y axis flipped: B on the first content row, A on the last.
	if !strings.Contains(lines[1], "B") {
		t.Fatalf("top row missing B: %q", lines[1])
	}
	if !strings.Contains(lines[10], "A") {
		t.Fatalf("bottom row missing A: %q", lines[10])
	}
}

func TestCanvasOutOfFieldIgnored(t *testing.T) {
	c := mustCanvas(t, field, 10, 10)
	c.Mark(geo.Point{X: -5, Y: 50}, 'X')
	if strings.Contains(c.String(), "X") {
		t.Fatal("out-of-field mark drawn")
	}
}

func TestMarkIfEmpty(t *testing.T) {
	c := mustCanvas(t, field, 10, 10)
	p := geo.Point{X: 500, Y: 500}
	c.Mark(p, 'A')
	c.MarkIfEmpty(p, 'B')
	if !strings.Contains(c.String(), "A") || strings.Contains(c.String(), "B") {
		t.Fatal("MarkIfEmpty overwrote")
	}
}

func TestOutline(t *testing.T) {
	c := mustCanvas(t, field, 40, 20)
	c.Outline(geo.Rect{Min: geo.Point{X: 250, Y: 250}, Max: geo.Point{X: 750, Y: 750}}, '#')
	if strings.Count(c.String(), "#") < 10 {
		t.Fatal("outline barely drawn")
	}
}

func TestDegenerateCanvasError(t *testing.T) {
	if _, err := NewCanvas(field, 1, 1); err == nil {
		t.Fatal("want error for a 1x1 canvas")
	}
	if _, err := NewCanvas(geo.Rect{}, 10, 10); err == nil {
		t.Fatal("want error for an empty field")
	}
}

func TestRouteMap(t *testing.T) {
	positions := []geo.Point{
		{X: 100, Y: 100}, {X: 300, Y: 300}, {X: 500, Y: 500},
		{X: 700, Y: 700}, {X: 900, Y: 900},
	}
	zd := geo.Rect{Min: geo.Point{X: 750, Y: 750}, Max: geo.Point{X: 1000, Y: 1000}}
	out, err := RouteMap(field, positions, []medium.NodeID{0, 1, 2, 3, 4}, 0, 4, zd, 50, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"S", "D", "1", "2", "3", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("map missing %q:\n%s", want, out)
		}
	}
}

func TestHopGlyphs(t *testing.T) {
	if hopGlyph(1) != '1' || hopGlyph(9) != '9' {
		t.Fatal("digit glyphs wrong")
	}
	if hopGlyph(10) != 'a' || hopGlyph(35) != 'z' {
		t.Fatal("letter glyphs wrong")
	}
	if hopGlyph(40) != '*' {
		t.Fatal("overflow glyph wrong")
	}
}

func TestRouteSVG(t *testing.T) {
	positions := []geo.Point{
		{X: 100, Y: 100}, {X: 300, Y: 300}, {X: 500, Y: 500},
		{X: 700, Y: 700}, {X: 900, Y: 900},
	}
	zd := geo.Rect{Min: geo.Point{X: 750, Y: 750}, Max: geo.Point{X: 1000, Y: 1000}}
	svg := RouteSVG(field, positions, []medium.NodeID{0, 1, 2, 3, 4}, 0, 4, zd,
		SVGOptions{Title: `route <1> & "two"`})
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "stroke-dasharray",
		">S</text>", ">D</text>", ">1</text>",
		"route &lt;1&gt; &amp; &quot;two&quot;",
	} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	// Default aspect ratio: square field -> square image.
	if !strings.Contains(svg, `width="640" height="640"`) {
		t.Fatal("default dimensions wrong")
	}
}

func TestRouteSVGDegenerateInputs(t *testing.T) {
	positions := []geo.Point{{X: 1, Y: 1}}
	// Path referencing out-of-range ids must not panic.
	svg := RouteSVG(field, positions, []medium.NodeID{0, 99}, 0, 99,
		geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 10, Y: 10}},
		SVGOptions{Width: 100})
	if !strings.Contains(svg, "<svg") {
		t.Fatal("no svg produced")
	}
	// Empty path.
	svg = RouteSVG(field, positions, nil, 0, 0,
		geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 10, Y: 10}},
		SVGOptions{})
	if strings.Contains(svg, "polyline") {
		t.Fatal("polyline drawn for empty path")
	}
}
