package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the ID
// of the span that made the call (0 for a run's root) and Run groups the
// spans of one workload run.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was created
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps the spans of a traced run in memory until the run ends. A
// nil *tracer records nothing, which is how untraced runs call the same
// code. It is used from one goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	run   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginRun opens the root span of a new run.
func (t *tracer) beginRun(name string) int {
	if t == nil {
		return 0
	}
	t.run++
	return t.begin(name, 0)
}

// begin opens a span caused by parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Parent: parent, Run: t.run,
		Start: time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
}

// selfTimes returns each span's self time: its duration minus the time its
// child spans cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent > 0 {
			self[s.Parent-1] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// selfByName groups self times by span name.
func selfByName(spans []span) map[string][]time.Duration {
	self := selfTimes(spans)
	out := map[string][]time.Duration{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

// checkSpans verifies the spans (in the order they began) form a call
// tree: every span closed and inside its parent, and each child of a span
// beginning after the previous one ended. Then each span's self time is
// time spent in that layer alone, and a run's self times add up to the
// run's wall time.
func checkSpans(spans []span) error {
	lastEnd := map[int]int64{}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) was not closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if p := spans[s.Parent-1]; s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Start < lastEnd[s.Parent] {
			return fmt.Errorf("span %d (%s) overlaps an earlier call of span %d", s.ID, s.Name, s.Parent)
		}
		lastEnd[s.Parent] = s.End
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phase is what a traced phase leaves besides the workload's own numbers.
type phase struct {
	spans  []span
	shares map[string]float64 // CPU profile share per module, in percent
	allocs uint64             // heap objects allocated during the phase
	gcPct  float64            // GC's share of the phase's process CPU
}

// fill reports the phase's profile shares and GC share.
func (ph phase) fill(rep *report) {
	for m, s := range ph.shares {
		rep.values["cpu_share."+m] = one(s)
	}
	rep.values["runtime.gc_cpu_pct"] = one(ph.gcPct)
	rep.values["runtime.peak_rss_mb"] = one(peakRSSMB())
}

// tracedPhase runs fn with a fresh tracer and the CPU profiler on, writes
// spans.jsonl and cpu.pprof to outDir, and decodes the profile. Spans
// that do not form a call tree fail a gate.
func tracedPhase(outDir string, rep *report, fn func(*tracer)) (phase, error) {
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return phase{}, err
	}
	rt0 := readRuntime()
	fn(tr)
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if err := writeSpans(filepath.Join(outDir, "spans.jsonl"), tr.spans); err != nil {
		return phase{}, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return phase{}, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return phase{}, err
	}
	if err := checkSpans(tr.spans); err != nil {
		rep.gate("%v", err)
	}
	return phase{
		spans:  tr.spans,
		shares: shares,
		allocs: rt1.allocs - rt0.allocs,
		gcPct:  100 * ratio(float64(rt1.gcCPU-rt0.gcCPU), float64(rt1.cpu-rt0.cpu)),
	}, nil
}

// rusage reads the process's resource usage. Getrusage on RUSAGE_SELF with
// a valid buffer cannot fail, so its error is not checked.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the CPU time (user + system) the process has used so far,
// across all its threads.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports Maxrss
// in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// liveHeapMB forces a full collection and returns the heap the program
// still reaches, in MiB. Unlike peak RSS it does not depend on when the
// collector happened to run, so it repeats from run to run. The second
// collection empties the sync.Pool caches the first one only demotes.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rtSnap is a reading of the Go runtime's own counters.
type rtSnap struct {
	allocs uint64        // heap objects allocated so far
	gcCPU  time.Duration // estimated CPU spent in the garbage collector
	cpu    time.Duration // process CPU time (rusage)
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSnap{
		allocs: s[0].Value.Uint64(),
		gcCPU:  time.Duration(s[1].Value.Float64() * float64(time.Second)),
		cpu:    cpuTime(),
	}
}

// modules are the repository's layers a CPU sample can be attributed to;
// other internal packages (the comparator protocols, stats, analysis) are
// "other" and samples with no internal frame at all are "runtime".
var modules = []string{
	"sim", "mobility", "geo", "rng", "medium", "node", "locservice", "crypt",
	"gpsr", "core", "metrics", "telemetry", "experiment", "campaign", "live",
	"other", "runtime",
}

const internalPrefix = "alertmanet/internal/"

// moduleOf maps a function name to its module, or "" when the function is
// not in the repository's internal tree.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules[:len(modules)-2] {
		if rest == m {
			return m
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and attributes each
// sample's CPU time to the innermost frame (inlined frames included) that
// lies in alertmanet/internal/<module>; samples with no such frame go to
// "runtime". It returns each module's percentage of the profile's CPU.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	// Use the CPU-time sample value when the profile has one.
	vi := 0
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			vi = i
		}
	}
	funcMod := map[uint64]string{}
	for id, name := range p.funcNames {
		funcMod[id] = moduleOf(p.str(name))
	}
	locMod := map[uint64]string{}
	for id, fns := range p.locFuncs {
		for _, fn := range fns { // innermost inlined frame first
			if m := funcMod[fn]; m != "" {
				locMod[id] = m
				break
			}
		}
	}
	by := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := float64(s.values[vi])
		mod := "runtime"
		for _, loc := range s.locs { // leaf first
			if m := locMod[loc]; m != "" {
				mod = m
				break
			}
		}
		by[mod] += v
		total += v
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		out[m] = 100 * ratio(by[m], total)
	}
	return out, nil
}

// profile holds the parts of a pprof profile cpuShares needs.
type profile struct {
	sampleTypes []int64 // string index of each sample value's type
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> string index of its name
	strings     []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("profile: malformed protobuf")

// pbField is one decoded protobuf field: its number, wire type, and either
// a varint value or a length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// uvarint decodes a protobuf varint, returning the value and the bytes
// read (0 or less on malformed input).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}

// varints returns the integers of a repeated scalar field, packed or not.
func varints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	if f.wire != 2 {
		return nil, errProto
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile decodes the Profile message fields cpuShares uses:
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func decodeProfile(raw []byte) (*profile, error) {
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	for _, f := range fields {
		if f.wire != 2 {
			continue
		}
		if f.num == 6 {
			p.strings = append(p.strings, string(f.data))
			continue
		}
		if f.num != 1 && f.num != 2 && f.num != 4 && f.num != 5 {
			continue
		}
		sub, err := pbFields(f.data)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case 1: // ValueType{type=1, unit=2}
			var typ int64
			for _, g := range sub {
				if g.num == 1 {
					typ = int64(g.v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // Sample{location_id=1, value=2}
			var s profSample
			for _, g := range sub {
				vs, err := varints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch {
				case g.num == 1:
					id = g.v
				case g.num == 4 && g.wire == 2:
					line, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // Function{id=1, name=2}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcNames[id] = name
		}
	}
	return p, nil
}
