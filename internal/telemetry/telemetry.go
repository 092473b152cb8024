// Package telemetry is the simulator's structured observability layer: a
// per-run event tap threaded through the whole stack — the sim engine
// (events scheduled/fired/cancelled), the medium (frame tx/rx/loss/ACK/
// retransmission), the routing layers (leg starts, per-hop forwards and
// arrivals, random-forwarder selections, zone broadcasts, terminal
// outcomes), and the crypto cost charges — plus a counters/histograms
// registry snapshotted per run and a run manifest.
//
// Events are emitted as deterministic JSONL keyed by simulated time: the
// same scenario and seed produce a byte-identical stream (the golden tests
// hash it), so a run's complete story is reconstructible and diffable after
// the fact — the role NS-2 trace files played in the paper's evaluation.
//
// The tap is nil when telemetry is disabled. Every instrumented call site
// guards with `if tap != nil { ... }`, so the disabled path is one
// predictable branch with no allocation and no call — the overhead contract
// TestNilTapZeroAlloc and the root allocation gate hold. All emit methods
// are additionally safe on a nil receiver, so un-guarded cold paths cannot
// crash.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Layer identifies one instrumented layer of the stack; a Tap carries a
// bitmask of the layers it records.
type Layer uint32

// The instrumented layers.
const (
	// LayerSim records engine-level events: schedule, fire, cancel. By far
	// the highest-volume layer (every timer and transmission is an engine
	// event); enable it when debugging the engine itself.
	LayerSim Layer = 1 << iota
	// LayerMedium records frame-level channel activity: tx, rx, loss,
	// retransmissions, ACKs, broadcasts.
	LayerMedium
	// LayerRoute records routing activity: leg starts, per-hop forwards
	// and confirmed arrivals, random-forwarder selections, zone
	// broadcasts, and leg-terminal outcomes.
	LayerRoute
	// LayerPacket records the application-packet lifecycle: one "sent"
	// and exactly one "terminal" event per packet (the event-stream
	// analogue of the metrics collector).
	LayerPacket
	// LayerCrypto records cryptographic cost charges (symmetric and
	// public-key operation counts).
	LayerCrypto

	// LayerAll enables every layer.
	LayerAll = LayerSim | LayerMedium | LayerRoute | LayerPacket | LayerCrypto
)

// layerNames maps single-layer bits to their JSONL names, in bit order.
var layerNames = []struct {
	bit  Layer
	name string
}{
	{LayerSim, "sim"},
	{LayerMedium, "medium"},
	{LayerRoute, "route"},
	{LayerPacket, "packet"},
	{LayerCrypto, "crypto"},
}

// LayerByName returns the layer bit for a JSONL layer name (0 if unknown).
func LayerByName(name string) Layer {
	for _, ln := range layerNames {
		if ln.name == name {
			return ln.bit
		}
	}
	return 0
}

// ParseLayers parses a comma-separated layer list ("medium,route,packet");
// "all" or the empty string means every layer.
func ParseLayers(s string) (Layer, error) {
	if s == "" || s == "all" {
		return LayerAll, nil
	}
	var mask Layer
	for _, part := range strings.Split(s, ",") {
		bit := LayerByName(strings.TrimSpace(part))
		if bit == 0 {
			return 0, fmt.Errorf("telemetry: unknown layer %q (want sim, medium, route, packet, crypto or all)", part)
		}
		mask |= bit
	}
	return mask, nil
}

// NoTrace marks an event not attributable to one application packet.
const NoTrace = -1

// Traceable lets the medium attribute a frame to the application packet it
// carries: routing payloads implement it by returning the packet's metrics
// sequence number (NoTrace when untraced).
type Traceable interface {
	TelemetryTrace() int
}

// TraceOf extracts the application-packet trace id from an arbitrary frame
// payload, NoTrace when the payload is not Traceable.
func TraceOf(payload any) int {
	if tr, ok := payload.(Traceable); ok {
		return tr.TelemetryTrace()
	}
	return NoTrace
}

// Tap is one run's event stream. It is single-threaded like the engine that
// feeds it: one Tap per run, never shared across concurrent runs.
type Tap struct {
	mask   Layer
	w      *bufio.Writer
	reg    *Registry
	events uint64
	line   []byte // reused per-event scratch buffer
	// stamp holds the formatted bytes of the instant stampAt (as bits),
	// stampN long: the lines of one instant, such as a broadcast's
	// receptions, share one formatting.
	stamp   [32]byte
	stampN  int
	stampAt uint64
}

// New creates a tap writing JSONL to w, recording the masked layers.
func New(w io.Writer, mask Layer) *Tap {
	t := &Tap{
		mask: mask,
		w:    bufio.NewWriterSize(w, 1<<16),
		reg:  NewRegistry(),
		line: make([]byte, 0, 256),
	}
	t.setStamp(0)
	return t
}

// setStamp formats now into stamp. Every float64 formats in at most 24
// bytes ('g', shortest), so the array never spills.
func (t *Tap) setStamp(now float64) {
	t.stampAt = math.Float64bits(now)
	t.stampN = len(strconv.AppendFloat(t.stamp[:0], now, 'g', -1, 64))
}

// Registry returns the tap's counters/histograms registry (nil tap: nil).
func (t *Tap) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Events returns how many event lines have been emitted.
func (t *Tap) Events() uint64 {
	if t == nil {
		return 0
	}
	return t.events
}

// Flush writes any buffered lines to the underlying writer.
func (t *Tap) Flush() error {
	if t == nil {
		return nil
	}
	return t.w.Flush()
}

// on reports whether a layer is recorded; safe on a nil receiver.
func (t *Tap) on(l Layer) bool { return t != nil && t.mask&l != 0 }

// begin starts an event line with the three universal fields.
func (t *Tap) begin(now float64, layer, kind string) []byte {
	if math.Float64bits(now) != t.stampAt {
		t.setStamp(now)
	}
	b := t.line[:0]
	b = append(b, `{"t":`...)
	b = append(b, t.stamp[:t.stampN]...)
	b = append(b, `,"layer":"`...)
	b = append(b, layer...)
	b = append(b, `","kind":"`...)
	b = append(b, kind...)
	b = append(b, '"')
	return b
}

// end terminates and writes an event line.
func (t *Tap) end(b []byte) {
	b = append(b, '}', '\n')
	t.line = b
	t.w.Write(b)
	t.events++
}

// The field helpers append `,"key":value`. Keys and string values are
// fixed identifiers from this package's vocabulary, so no JSON escaping is
// needed.

func fInt(b []byte, key string, v int) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(v), 10)
}

func fUint(b []byte, key string, v uint64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendUint(b, v, 10)
}

func fFloat(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func fStr(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":"`...)
	b = append(b, v...)
	return append(b, '"')
}

// --- sim layer ---

// SimScheduled records an engine event being scheduled for time at.
func (t *Tap) SimScheduled(now, at float64, id uint64) {
	if !t.on(LayerSim) {
		return
	}
	t.reg.Inc("sim.scheduled", 1)
	b := t.begin(now, "sim", "schedule")
	b = fUint(b, "id", id)
	b = fFloat(b, "at", at)
	t.end(b)
}

// SimFired records an engine event executing.
func (t *Tap) SimFired(now float64, id uint64) {
	if !t.on(LayerSim) {
		return
	}
	t.reg.Inc("sim.fired", 1)
	b := t.begin(now, "sim", "fire")
	b = fUint(b, "id", id)
	t.end(b)
}

// SimCancelled records a scheduled event being cancelled before firing.
func (t *Tap) SimCancelled(now float64, id uint64) {
	if !t.on(LayerSim) {
		return
	}
	t.reg.Inc("sim.cancelled", 1)
	b := t.begin(now, "sim", "cancel")
	b = fUint(b, "id", id)
	t.end(b)
}

// --- medium layer ---

// FrameTx records a unicast data-frame transmission attempt (attempt 1 is
// the first send; higher attempts are ARQ retransmissions).
func (t *Tap) FrameTx(now float64, from, to, trace, size, attempt int) {
	if !t.on(LayerMedium) {
		return
	}
	t.reg.Inc("medium.tx", 1)
	if attempt > 1 {
		t.reg.Inc("medium.retransmit", 1)
	}
	t.reg.Observe("medium.frame_size", float64(size))
	b := t.begin(now, "medium", "tx")
	b = fInt(b, "trace", trace)
	b = fInt(b, "from", from)
	b = fInt(b, "to", to)
	b = fInt(b, "size", size)
	b = fInt(b, "attempt", attempt)
	t.end(b)
}

// FrameRx records a frame reaching its receiver's handler.
func (t *Tap) FrameRx(now float64, from, to, trace, size int) {
	if !t.on(LayerMedium) {
		return
	}
	t.reg.Inc("medium.rx", 1)
	b := t.begin(now, "medium", "rx")
	b = fInt(b, "trace", trace)
	b = fInt(b, "from", from)
	b = fInt(b, "to", to)
	b = fInt(b, "size", size)
	t.end(b)
}

// FrameDup records a duplicate data reception absorbed by the ARQ (a
// retransmission raced a lost ACK).
func (t *Tap) FrameDup(now float64, from, to, trace int) {
	if !t.on(LayerMedium) {
		return
	}
	t.reg.Inc("medium.dup", 1)
	b := t.begin(now, "medium", "dup")
	b = fInt(b, "trace", trace)
	b = fInt(b, "from", from)
	b = fInt(b, "to", to)
	t.end(b)
}

// FrameLost records a frame failing on air; reason is "range", "loss" or
// "compromised".
func (t *Tap) FrameLost(now float64, from, to, trace int, reason string) {
	if !t.on(LayerMedium) {
		return
	}
	t.reg.Inc("medium.lost."+reason, 1)
	b := t.begin(now, "medium", "loss")
	b = fInt(b, "trace", trace)
	b = fInt(b, "from", from)
	b = fInt(b, "to", to)
	b = fStr(b, "detail", reason)
	t.end(b)
}

// BroadcastTx records a one-hop local broadcast leaving a node. Receivers
// out of radio range are physics, not loss, so only actual receptions and
// random losses are recorded per receiver.
func (t *Tap) BroadcastTx(now float64, from, trace, size int) {
	if !t.on(LayerMedium) {
		return
	}
	t.reg.Inc("medium.bcast", 1)
	b := t.begin(now, "medium", "bcast")
	b = fInt(b, "trace", trace)
	b = fInt(b, "from", from)
	b = fInt(b, "size", size)
	t.end(b)
}

// AckTx records an ARQ ACK frame being transmitted back to the sender.
func (t *Tap) AckTx(now float64, from, to, trace int) {
	if !t.on(LayerMedium) {
		return
	}
	t.reg.Inc("medium.ack", 1)
	b := t.begin(now, "medium", "ack")
	b = fInt(b, "trace", trace)
	b = fInt(b, "from", from)
	b = fInt(b, "to", to)
	t.end(b)
}

// AckLost records an ACK frame failing on air (triggering a retransmission
// or retry exhaustion at the sender).
func (t *Tap) AckLost(now float64, from, to, trace int) {
	if !t.on(LayerMedium) {
		return
	}
	t.reg.Inc("medium.ack_lost", 1)
	b := t.begin(now, "medium", "ackloss")
	b = fInt(b, "trace", trace)
	b = fInt(b, "from", from)
	b = fInt(b, "to", to)
	t.end(b)
}

// --- route layer ---

// RouteSend records a routing leg starting at a node.
func (t *Tap) RouteSend(now float64, trace, node int) {
	if !t.on(LayerRoute) {
		return
	}
	t.reg.Inc("route.send", 1)
	b := t.begin(now, "route", "send")
	b = fInt(b, "trace", trace)
	b = fInt(b, "node", node)
	t.end(b)
}

// Forward records a one-hop forwarding decision; mode is "greedy",
// "perimeter", or a protocol-specific label (AO2P's "claim").
func (t *Tap) Forward(now float64, trace, from, to int, mode string) {
	if !t.on(LayerRoute) {
		return
	}
	t.reg.Inc("route.fwd", 1)
	b := t.begin(now, "route", "fwd")
	b = fInt(b, "trace", trace)
	b = fInt(b, "from", from)
	b = fInt(b, "to", to)
	b = fStr(b, "detail", mode)
	t.end(b)
}

// Hop records a packet's confirmed arrival at a node (the hop count after
// the arrival rides along).
func (t *Tap) Hop(now float64, trace, node, hops int) {
	if !t.on(LayerRoute) {
		return
	}
	t.reg.Inc("route.hop", 1)
	b := t.begin(now, "route", "hop")
	b = fInt(b, "trace", trace)
	b = fInt(b, "node", node)
	b = fInt(b, "hops", hops)
	t.end(b)
}

// LegEnd records a routing leg terminating at a node with a gpsr outcome
// ("delivered", "arrived-closest", "dropped-ttl", ...).
func (t *Tap) LegEnd(now float64, trace, node int, outcome string) {
	if !t.on(LayerRoute) {
		return
	}
	t.reg.Inc("route.leg."+outcome, 1)
	b := t.begin(now, "route", "leg")
	b = fInt(b, "trace", trace)
	b = fInt(b, "node", node)
	b = fStr(b, "detail", outcome)
	t.end(b)
}

// RFSelected records an ALERT random forwarder joining a packet's path.
func (t *Tap) RFSelected(now float64, trace, node int) {
	if !t.on(LayerRoute) {
		return
	}
	t.reg.Inc("route.rf", 1)
	b := t.begin(now, "route", "rf")
	b = fInt(b, "trace", trace)
	b = fInt(b, "node", node)
	t.end(b)
}

// ZoneBroadcast records a destination-zone delivery step (ALERT's
// k-anonymity broadcast, step 1, or an intersection-guard release, step 2).
func (t *Tap) ZoneBroadcast(now float64, trace, node, step int) {
	if !t.on(LayerRoute) {
		return
	}
	t.reg.Inc("route.zonecast", 1)
	b := t.begin(now, "route", "zonecast")
	b = fInt(b, "trace", trace)
	b = fInt(b, "node", node)
	b = fInt(b, "step", step)
	t.end(b)
}

// --- packet layer ---

// PacketSent records an application packet being issued by its source.
func (t *Tap) PacketSent(now float64, trace, src, dst int) {
	if !t.on(LayerPacket) {
		return
	}
	t.reg.Inc("packet.sent", 1)
	b := t.begin(now, "packet", "sent")
	b = fInt(b, "trace", trace)
	b = fInt(b, "src", src)
	b = fInt(b, "dst", dst)
	t.end(b)
}

// PacketDone records a packet's terminal outcome — emitted exactly once per
// packet, when its metrics record completes.
func (t *Tap) PacketDone(now float64, trace int, delivered bool, hops int, latency float64) {
	if !t.on(LayerPacket) {
		return
	}
	detail := "dropped"
	if delivered {
		detail = "delivered"
		t.reg.Inc("packet.delivered", 1)
		t.reg.Observe("packet.latency", latency)
	} else {
		t.reg.Inc("packet.dropped", 1)
	}
	t.reg.Observe("packet.hops", float64(hops))
	b := t.begin(now, "packet", "terminal")
	b = fInt(b, "trace", trace)
	b = fInt(b, "hops", hops)
	b = fFloat(b, "latency", latency)
	b = fStr(b, "detail", detail)
	t.end(b)
}

// --- crypto layer ---

// Crypto records n cryptographic operations being charged; op is "sym" or
// "pub".
func (t *Tap) Crypto(now float64, op string, n int) {
	if !t.on(LayerCrypto) {
		return
	}
	t.reg.Inc("crypto."+op, uint64(n))
	b := t.begin(now, "crypto", "charge")
	b = fStr(b, "detail", op)
	b = fInt(b, "n", n)
	t.end(b)
}

// WriteSnapshot appends the registry's counters and histograms to the
// stream as "registry"-layer lines, sorted by name so the stream stays
// deterministic. Call it once, after the run drains.
func (t *Tap) WriteSnapshot(now float64) {
	if t == nil {
		return
	}
	names := make([]string, 0, len(t.reg.counters))
	for name := range t.reg.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := t.begin(now, "registry", "counter")
		b = fStr(b, "name", name)
		b = fUint(b, "n", t.reg.counters[name])
		t.end(b)
	}
	names = names[:0]
	for name := range t.reg.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := t.reg.hists[name]
		b := t.begin(now, "registry", "hist")
		b = fStr(b, "name", name)
		b = fUint(b, "count", h.Count)
		b = fFloat(b, "sum", h.Sum)
		b = fFloat(b, "min", h.Min)
		b = fFloat(b, "max", h.Max)
		b = append(b, `,"buckets":[`...)
		first := true
		for i, n := range h.buckets {
			if n == 0 {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '[')
			b = strconv.AppendFloat(b, bucketBound(i), 'g', -1, 64)
			b = append(b, ',')
			b = strconv.AppendUint(b, n, 10)
			b = append(b, ']')
		}
		b = append(b, ']')
		t.end(b)
	}
}
