package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// emitEverything exercises every emit method once against t (which may be
// nil or partially masked).
func emitEverything(t *Tap) {
	t.SimScheduled(0, 1.5, 7)
	t.SimFired(1.5, 7)
	t.SimCancelled(1.5, 8)
	t.FrameTx(2, 1, 2, 3, 512, 1)
	t.FrameTx(2.1, 1, 2, 3, 512, 2)
	t.FrameRx(2.2, 1, 2, 3, 512)
	t.FrameDup(2.3, 1, 2, 3)
	t.FrameLost(2.4, 1, 2, 3, "loss")
	t.BroadcastTx(2.5, 1, 3, 512)
	t.AckTx(2.6, 2, 1, 3)
	t.AckLost(2.7, 2, 1, 3)
	t.RouteSend(3, 3, 1)
	t.Forward(3.1, 3, 1, 2, "greedy")
	t.Hop(3.2, 3, 2, 1)
	t.LegEnd(3.3, 3, 2, "arrived-closest")
	t.RFSelected(3.4, 3, 2)
	t.ZoneBroadcast(3.5, 3, 2, 1)
	t.PacketSent(4, 3, 1, 2)
	t.PacketDone(4.5, 3, true, 4, 0.5)
	t.PacketDone(4.6, 4, false, 2, 0)
	t.Crypto(5, "sym", 3)
}

// TestNilTapSafe: every emit method, and the accessors, must be no-ops on a
// nil receiver — un-guarded cold paths cannot crash a run with telemetry
// off.
func TestNilTapSafe(t *testing.T) {
	var tap *Tap
	emitEverything(tap)
	tap.WriteSnapshot(10)
	if tap.Events() != 0 {
		t.Errorf("nil tap Events() = %d, want 0", tap.Events())
	}
	if tap.Registry() != nil {
		t.Errorf("nil tap Registry() != nil")
	}
	if err := tap.Flush(); err != nil {
		t.Errorf("nil tap Flush() = %v", err)
	}
}

// TestNilTapZeroAlloc is the overhead contract: a disabled (nil) tap costs
// the call sites one branch and zero allocations.
func TestNilTapZeroAlloc(t *testing.T) {
	var tap *Tap
	allocs := testing.AllocsPerRun(1000, func() {
		if tap != nil {
			tap.FrameTx(1, 2, 3, 4, 512, 1)
		}
		tap.Hop(1, 2, 3, 4) // nil-receiver-safe path must not allocate either
	})
	if allocs != 0 {
		t.Errorf("nil-tap emit allocates %v per op, want 0", allocs)
	}
}

// TestMaskedLayerZeroAllocAndSilent: a live tap with a layer masked off
// writes nothing for that layer and allocates nothing on the masked path.
func TestMaskedLayerZeroAllocAndSilent(t *testing.T) {
	var buf bytes.Buffer
	tap := New(&buf, LayerMedium)
	tap.SimScheduled(0, 1, 1)
	tap.RouteSend(0, 1, 2)
	tap.PacketSent(0, 1, 2, 3)
	tap.Crypto(0, "sym", 1)
	tap.Flush()
	if buf.Len() != 0 {
		t.Fatalf("masked layers wrote %d bytes: %q", buf.Len(), buf.String())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tap.RouteSend(0, 1, 2)
	})
	if allocs != 0 {
		t.Errorf("masked emit allocates %v per op, want 0", allocs)
	}
}

// TestStreamDeterminism: the same emission sequence produces byte-identical
// output, including the registry snapshot.
func TestStreamDeterminism(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		tap := New(&buf, LayerAll)
		emitEverything(tap)
		tap.WriteSnapshot(10)
		tap.Flush()
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("streams differ:\n%s\n---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty stream")
	}
}

// TestEventsValidJSON: every emitted line must be valid JSON and parse back
// through ParseLine with id fields intact.
func TestEventsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tap := New(&buf, LayerAll)
	emitEverything(tap)
	tap.WriteSnapshot(10)
	tap.Flush()

	raw := buf.String()
	events, err := ReadAll(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(events)) != tap.Events() {
		t.Fatalf("parsed %d events, tap reports %d", len(events), tap.Events())
	}
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
	}
}

func TestParseLineFields(t *testing.T) {
	var buf bytes.Buffer
	tap := New(&buf, LayerAll)
	tap.FrameTx(2.5, 0, 7, 0, 512, 2) // node 0 and trace 0 must survive parsing
	tap.Flush()
	events, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev := events[0]
	if ev.T != 2.5 || ev.Layer != "medium" || ev.Kind != "tx" {
		t.Errorf("header fields wrong: %+v", ev)
	}
	if ev.From != 0 || ev.To != 7 || ev.Trace != 0 || ev.Size != 512 || ev.Attempt != 2 {
		t.Errorf("body fields wrong: %+v", ev)
	}
	if ev.Node != -1 || ev.Src != -1 || ev.Dst != -1 {
		t.Errorf("absent id fields should be -1: %+v", ev)
	}
}

// TestSnapshotSorted: registry lines appear in sorted name order so the
// stream is deterministic regardless of map iteration.
func TestSnapshotSorted(t *testing.T) {
	var buf bytes.Buffer
	tap := New(&buf, LayerAll)
	emitEverything(tap)
	before := tap.Events()
	tap.WriteSnapshot(10)
	tap.Flush()
	if tap.Events() == before {
		t.Fatal("snapshot emitted nothing")
	}
	events, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var counters, hists []string
	for _, ev := range events {
		switch {
		case ev.Layer == "registry" && ev.Kind == "counter":
			counters = append(counters, ev.Name)
		case ev.Layer == "registry" && ev.Kind == "hist":
			hists = append(hists, ev.Name)
		}
	}
	if len(counters) == 0 || len(hists) == 0 {
		t.Fatalf("snapshot missing sections: %d counters, %d hists", len(counters), len(hists))
	}
	if !sort.StringsAreSorted(counters) {
		t.Errorf("counters not sorted: %v", counters)
	}
	if !sort.StringsAreSorted(hists) {
		t.Errorf("hists not sorted: %v", hists)
	}
}

func TestRegistryAggregates(t *testing.T) {
	var buf bytes.Buffer
	tap := New(&buf, LayerAll)
	emitEverything(tap)
	reg := tap.Registry()
	if got := reg.Counter("medium.tx"); got != 2 {
		t.Errorf("medium.tx = %d, want 2", got)
	}
	if got := reg.Counter("medium.retransmit"); got != 1 {
		t.Errorf("medium.retransmit = %d, want 1", got)
	}
	if got := reg.Counter("crypto.sym"); got != 3 {
		t.Errorf("crypto.sym = %d, want 3 (n accumulates)", got)
	}
	if got := reg.Counter("route.leg.arrived-closest"); got != 1 {
		t.Errorf("route.leg.arrived-closest = %d, want 1", got)
	}
	h := reg.Hist("packet.latency")
	if h == nil || h.Count != 1 || h.Sum != 0.5 {
		t.Fatalf("packet.latency hist = %+v", h)
	}
	if h.Min != 0.5 || h.Max != 0.5 || h.Mean() != 0.5 {
		t.Errorf("hist min/max/mean = %v/%v/%v, want 0.5", h.Min, h.Max, h.Mean())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.Observe("x", 0)    // below the base: first bucket
	r.Observe("x", 1e-6) // exactly the base bound: first bucket (inclusive)
	r.Observe("x", 2e-6) // second bucket
	r.Observe("x", 1e12) // beyond the last bound: overflow bucket
	h := r.Hist("x")
	if h.Bucket(0) != 2 {
		t.Errorf("bucket 0 = %d, want 2", h.Bucket(0))
	}
	if h.Bucket(1) != 1 {
		t.Errorf("bucket 1 = %d, want 1", h.Bucket(1))
	}
	if h.Bucket(h.Buckets()-1) != 1 {
		t.Errorf("overflow bucket = %d, want 1", h.Bucket(h.Buckets()-1))
	}
	if h.Count != 4 || h.Min != 0 || h.Max != 1e12 {
		t.Errorf("count/min/max = %d/%v/%v", h.Count, h.Min, h.Max)
	}
	// Bounds grow geometrically with ratio 4.
	if b0, b1 := bucketBound(0), bucketBound(1); b1 != 4*b0 {
		t.Errorf("bucket bounds %v, %v: want ratio 4", b0, b1)
	}
	// Nil registry is inert.
	var nilReg *Registry
	nilReg.Inc("y", 1)
	nilReg.Observe("y", 1)
	if nilReg.Counter("y") != 0 || nilReg.Hist("y") != nil {
		t.Error("nil registry not inert")
	}
}

func TestParseLayers(t *testing.T) {
	cases := []struct {
		in   string
		want Layer
		err  bool
	}{
		{"", LayerAll, false},
		{"all", LayerAll, false},
		{"sim", LayerSim, false},
		{"medium,route", LayerMedium | LayerRoute, false},
		{" packet , crypto ", LayerPacket | LayerCrypto, false},
		{"bogus", 0, true},
		{"medium,bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseLayers(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseLayers(%q): want error", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseLayers(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, name := range []string{"sim", "medium", "route", "packet", "crypto"} {
		if LayerByName(name) == 0 {
			t.Errorf("LayerByName(%q) = 0", name)
		}
	}
	if LayerByName("registry") != 0 {
		t.Error("registry is a stream section, not a maskable layer")
	}
}

func TestFilter(t *testing.T) {
	var buf bytes.Buffer
	tap := New(&buf, LayerAll)
	emitEverything(tap)
	tap.Flush()
	events, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}

	all := NewFilter()
	for _, ev := range events {
		if !all.Match(ev) {
			t.Fatalf("default filter rejected %+v", ev)
		}
	}

	byTrace := NewFilter()
	byTrace.Trace = 3
	n := 0
	for _, ev := range events {
		if byTrace.Match(ev) {
			n++
			if ev.Trace != 3 {
				t.Errorf("trace filter passed %+v", ev)
			}
		}
	}
	if n == 0 {
		t.Error("trace filter matched nothing")
	}

	byNode := NewFilter()
	byNode.Node = 2
	for _, ev := range events {
		if byNode.Match(ev) &&
			ev.Node != 2 && ev.From != 2 && ev.To != 2 && ev.Src != 2 && ev.Dst != 2 {
			t.Errorf("node filter passed %+v", ev)
		}
	}

	byKind := NewFilter()
	byKind.Kind = "hop"
	n = 0
	for _, ev := range events {
		if byKind.Match(ev) {
			n++
			if ev.Kind != "hop" {
				t.Errorf("kind filter passed %+v", ev)
			}
		}
	}
	if n != 1 {
		t.Errorf("kind filter matched %d, want 1", n)
	}

	byLayer := NewFilter()
	byLayer.Layers = LayerMedium
	for _, ev := range events {
		if byLayer.Match(ev) && ev.Layer != "medium" {
			t.Errorf("layer filter passed %+v", ev)
		}
	}
}

func TestManifestEncode(t *testing.T) {
	var buf bytes.Buffer
	m := Manifest{
		ScenarioHash:    "abc",
		Seed:            7,
		Protocol:        "alert",
		GoVersion:       "go-test",
		WallSeconds:     2,
		SimSeconds:      110,
		ProcessedEvents: 1000,
		EmittedEvents:   500,
	}
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.EventsPerSecond != 500 {
		t.Errorf("events_per_second = %v, want 500", got.EventsPerSecond)
	}
	if got.ScenarioHash != "abc" || got.Seed != 7 || got.EmittedEvents != 500 {
		t.Errorf("round trip lost fields: %+v", got)
	}
}

func TestTraceOf(t *testing.T) {
	if TraceOf("not traceable") != NoTrace {
		t.Error("untraceable payload should map to NoTrace")
	}
	if TraceOf(nil) != NoTrace {
		t.Error("nil payload should map to NoTrace")
	}
	if TraceOf(traceable(42)) != 42 {
		t.Error("traceable payload lost its id")
	}
}

type traceable int

func (tr traceable) TelemetryTrace() int { return int(tr) }

func TestReadAllErrors(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("{broken\n")); err == nil {
		t.Error("malformed line should error")
	}
	events, err := ReadAll(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Errorf("blank lines: %v, %v", events, err)
	}
}

func TestFloatFormattingRoundTrips(t *testing.T) {
	// The encoder uses strconv 'g' with -1 precision: every float64 must
	// survive a JSON round trip exactly — the foundation of golden-stream
	// hashing.
	var buf bytes.Buffer
	tap := New(&buf, LayerAll)
	vals := []float64{0, 1.0 / 3.0, math.Pi, 1e-9, 12345.678901234567}
	for i, v := range vals {
		tap.PacketDone(v, i, true, 1, v)
	}
	tap.Flush()
	events, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if ev.T != vals[i] || ev.Latency != vals[i] {
			t.Errorf("float %v round-tripped to t=%v latency=%v", vals[i], ev.T, ev.Latency)
		}
	}
}

// BenchmarkDisabledTap measures the nil-tap call-site pattern the stack
// uses everywhere: branch on nil, skip the call. This is the "zero overhead
// when disabled" contract in benchmark form.
func BenchmarkDisabledTap(b *testing.B) {
	var tap *Tap
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tap != nil {
			tap.FrameTx(1, 2, 3, 4, 512, 1)
		}
	}
}

// BenchmarkEnabledEmit measures one enabled frame-tx emit into a discarding
// writer: the steady-state per-event cost with telemetry on.
func BenchmarkEnabledEmit(b *testing.B) {
	tap := New(io.Discard, LayerAll)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tap.FrameTx(float64(i), 2, 3, 4, 512, 1)
	}
}

// TestStampMemo: lines that share an instant reuse its formatted bytes, and
// every line still carries exactly strconv's shortest form of its own
// instant, across repeats, signed zeros, subnormals and a return to an
// earlier instant. A repeated instant allocates nothing.
func TestStampMemo(t *testing.T) {
	var buf bytes.Buffer
	tap := New(&buf, LayerMedium)
	instants := []float64{0, 0, 1.5, 1.5, 1.5, math.Copysign(0, -1), 0, 5e-324, 0.1 + 0.2,
		0.30000000000000004, 1.5, -1.7976931348623157e308, math.Inf(1)}
	for _, at := range instants {
		tap.FrameRx(at, 1, 2, 3, 512)
	}
	if err := tap.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(instants) {
		t.Fatalf("%d lines for %d events", len(lines), len(instants))
	}
	for i, at := range instants {
		want := `{"t":` + strconv.FormatFloat(at, 'g', -1, 64) + `,"layer":"medium"`
		if !strings.HasPrefix(lines[i], want) {
			t.Errorf("line %d = %s, want prefix %s", i, lines[i], want)
		}
	}
	tap = New(io.Discard, LayerMedium)
	tap.FrameRx(2.25, 1, 2, 3, 512)
	if allocs := testing.AllocsPerRun(100, func() { tap.FrameRx(2.25, 1, 2, 3, 512) }); allocs != 0 {
		t.Errorf("a line at a repeated instant allocates %v", allocs)
	}
}

// Mean returns the histogram's mean sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Bucket returns the count in bucket i (0 ≤ i < Buckets()).
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return histBuckets }

// Hist returns a named histogram, or nil if nothing was observed under that
// name.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hists[name]
}
