package live

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"alertmanet/internal/core"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
)

func mustEncode(t *testing.T, f *Frame) []byte {
	t.Helper()
	b, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return b
}

func sampleDataFrame() *Frame {
	return &Frame{
		Kind:      KindData,
		SendID:    0x0102030405060708,
		From:      3,
		To:        9,
		Flags:     0,
		VTime:     0.0123,
		Size:      512,
		SrcPos:    geo.Point{X: 101.5, Y: 902.25},
		Flow:      7,
		Seq:       42,
		Dest:      geo.Point{X: 700, Y: 300},
		DeliverTo: int32(gpsr.NoDeliverTo),
		HopBudget: 10,
		Hops:      3,
		Mode:      gpsr.Perimeter,
		EntryDist: 321.125,
		Prev:      2,
		FirstFrom: 3,
		FirstTo:   5,
		Path:      []int32{1, 2, 3},
	}
}

func sampleEnvelope() *Envelope {
	e := &Envelope{
		Kind:      core.KindData,
		LZD:       geo.Rect{Min: geo.Point{X: 1, Y: 2}, Max: geo.Point{X: 3, Y: 4}},
		TD:        geo.Point{X: math.Pi * 100, Y: math.Sqrt2 * 300}, // full-precision floats
		Dir:       geo.Horizontal,
		Hdiv:      2,
		Hmax:      5,
		Zone:      geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 1000, Y: 1000}},
		DPubOwner: 9,
		Seq:       11,
		EncLZS:    []byte{1, 2, 3},
		EncSymKey: []byte{4, 5},
		Payload:   []byte("sealed payload bytes"),
	}
	for i := range e.PS {
		e.PS[i] = byte(i)
		e.PD[i] = byte(0xFF - i)
	}
	return e
}

// TestRoundTripData pins the codec's core contract: decode(encode(f)) == f
// and encode(decode(b)) == b, for plain data frames, envelope frames and
// acks.
func TestRoundTripData(t *testing.T) {
	frames := map[string]*Frame{
		"data":  sampleDataFrame(),
		"ack":   {Kind: KindAck, SendID: 99, From: 1, To: 2},
		"empty": {Kind: KindData, To: None, Flags: FlagNoAck, ZoneStep: 1},
	}
	env := sampleDataFrame()
	env.Flags |= FlagEnvelope
	env.Env = sampleEnvelope()
	frames["envelope"] = env

	for name, f := range frames {
		b := mustEncode(t, f)
		var got Frame
		if err := DecodeFrame(b, &got); err != nil {
			t.Fatalf("%s: DecodeFrame: %v", name, err)
		}
		if !reflect.DeepEqual(&got, f) {
			t.Errorf("%s: round-trip mismatch:\n got %+v\nwant %+v", name, got, *f)
		}
		b2 := mustEncode(t, &got)
		if !bytes.Equal(b, b2) {
			t.Errorf("%s: re-encode differs from original bytes", name)
		}
	}
}

// TestDecodeReuse decodes into a frame that already holds storage — the
// daemon's pooled receive path — and checks the previous contents never
// leak through.
func TestDecodeReuse(t *testing.T) {
	var f Frame
	withEnv := sampleDataFrame()
	withEnv.Flags |= FlagEnvelope
	withEnv.Env = sampleEnvelope()
	if err := DecodeFrame(mustEncode(t, withEnv), &f); err != nil {
		t.Fatal(err)
	}
	plain := sampleDataFrame()
	plain.Path = []int32{8}
	if err := DecodeFrame(mustEncode(t, plain), &f); err != nil {
		t.Fatal(err)
	}
	if f.Env != nil {
		t.Errorf("stale envelope survived reuse: %+v", f.Env)
	}
	if !reflect.DeepEqual(f.Path, []int32{8}) {
		t.Errorf("stale path survived reuse: %v", f.Path)
	}
}

// TestDecodeErrors exercises every strictness clause of the wire contract.
func TestDecodeErrors(t *testing.T) {
	good := mustEncode(t, sampleDataFrame())
	var f Frame
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:3],
		"bad magic":   append([]byte{0, 0}, good[2:]...),
		"bad version": append([]byte{Magic0, Magic1, 99}, good[3:]...),
		"bad kind":    append([]byte{Magic0, Magic1, Version, 77}, good[4:]...),
		"truncated":   good[:len(good)-2],
		"trailing":    append(append([]byte(nil), good...), 0),
		"oversize":    make([]byte, MaxFrame+1),
	}
	for name, b := range cases {
		if err := DecodeFrame(b, &f); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
	if _, err := AppendFrame(nil, &Frame{Kind: 7}); err == nil {
		t.Error("AppendFrame accepted unknown kind")
	}
	if _, err := AppendFrame(nil, &Frame{Kind: KindData, Path: make([]int32, maxPath+1)}); err == nil {
		t.Error("AppendFrame accepted oversize path")
	}
	big := sampleDataFrame()
	big.Flags |= FlagEnvelope
	big.Env = &Envelope{Payload: make([]byte, maxField+1)}
	if _, err := AppendFrame(nil, big); err == nil {
		t.Error("AppendFrame accepted oversize envelope field")
	}
	noEnv := sampleDataFrame()
	noEnv.Flags |= FlagEnvelope
	if _, err := AppendFrame(nil, noEnv); err == nil {
		t.Error("AppendFrame accepted FlagEnvelope without Env")
	}

	// Every truncation of an envelope frame errors, never panics. (The
	// envelope's value domains are core's TestUnmarshalErrors.)
	envf := sampleDataFrame()
	envf.Flags |= FlagEnvelope
	envf.Env = sampleEnvelope()
	wire := mustEncode(t, envf)
	for n := 0; n < len(wire); n++ {
		if err := DecodeFrame(wire[:n], &f); err == nil {
			t.Fatalf("envelope frame truncated at %d of %d bytes accepted", n, len(wire))
		}
	}
}

// TestForwardStateRoundTrip round-trips the GPSR decision state the frame
// carries between daemons.
func TestForwardStateRoundTrip(t *testing.T) {
	st := gpsr.ForwardState{Mode: gpsr.Perimeter, EntryDist: 77.5,
		Prev: 3, FirstFrom: 4, FirstTo: gpsr.NoDeliverTo}
	var f Frame
	f.Kind = KindData
	f.SetForwardState(st)
	var got Frame
	if err := DecodeFrame(mustEncode(t, &f), &got); err != nil {
		t.Fatal(err)
	}
	if got.ForwardState() != st {
		t.Errorf("forward state round-trip: got %+v want %+v", got.ForwardState(), st)
	}
}

// FuzzWireCodec is the codec's safety and determinism fuzz: any byte string
// either fails to decode or round-trips byte-identically through
// encode(decode(b)), for every frame kind. Seeds cover each kind and each
// error class.
func FuzzWireCodec(f *testing.F) {
	add := func(fr *Frame) {
		b, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(sampleDataFrame())
	add(&Frame{Kind: KindAck, SendID: 1, From: 0, To: 1})
	envf := sampleDataFrame()
	envf.Flags |= FlagEnvelope
	envf.Env = sampleEnvelope()
	add(envf)
	zone := sampleDataFrame()
	zone.To = None
	zone.Flags = FlagNoAck
	zone.ZoneStep = 2
	add(zone)
	f.Add([]byte{})
	f.Add([]byte{Magic0, Magic1, Version, byte(KindData)})
	f.Add(bytes.Repeat([]byte{0xA5}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := DecodeFrame(data, &fr); err != nil {
			return
		}
		re, err := AppendFrame(nil, &fr)
		if err != nil {
			// Float fields can decode to NaN and still re-encode; the
			// only legitimate re-encode failures are bounds, which
			// decode already enforced.
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", data, re)
		}
		// Decoding the re-encoded bytes must agree field-for-field
		// unless a float field carries NaN (NaN != NaN).
		var fr2 Frame
		if err := DecodeFrame(re, &fr2); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !hasNaN(&fr) && !reflect.DeepEqual(&fr, &fr2) {
			t.Fatalf("re-decode differs:\n a %+v\n b %+v", fr, fr2)
		}
	})
}

func hasNaN(f *Frame) bool {
	for _, v := range []float64{f.VTime, f.SrcPos.X, f.SrcPos.Y, f.Dest.X,
		f.Dest.Y, f.EntryDist} {
		if math.IsNaN(v) {
			return true
		}
	}
	if e := f.Env; e != nil {
		for _, v := range []float64{e.LZD.Min.X, e.LZD.Min.Y, e.LZD.Max.X,
			e.LZD.Max.Y, e.TD.X, e.TD.Y, e.Zone.Min.X, e.Zone.Min.Y,
			e.Zone.Max.X, e.Zone.Max.Y} {
			if math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}
