package core_test

// The on-air form of ALERT's packet format (Fig. 4). core keeps the format
// — Envelope and its embedded Partition — and internal/live's frame codec
// is its one encoding: envelopeFromCore takes an envelope's wire-visible
// fields into an envelope frame. These tests hold core envelopes to that
// codec: every wire field survives it bit for bit, the decoder rejects
// values outside core's domains, and a data packet fits the configured
// packet size. They form an external test package because live imports
// core.

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/live"
	"alertmanet/internal/medium"
	"alertmanet/internal/rng"
)

// sampleEnvelope is a data envelope with every wire field set.
func sampleEnvelope() *core.Envelope {
	src := rng.New(1)
	dpub, _ := crypt.NewFastSuite(src).GenerateKeyPair(7)
	return &core.Envelope{
		Kind: core.KindData,
		PS:   crypt.NewPseudonym(0xAA, 1, src),
		PD:   crypt.NewPseudonym(0xBB, 1, src),
		Partition: core.Partition{
			LZD:  geo.Rect{Min: geo.Point{X: 875, Y: 250}, Max: geo.Point{X: 1000, Y: 500}},
			TD:   geo.Point{X: 912.25, Y: 333.5},
			Dir:  geo.Horizontal,
			Hdiv: 3,
			Hmax: 5,
			Zone: geo.Rect{Min: geo.Point{X: 750, Y: 250}, Max: geo.Point{X: 1000, Y: 500}},
		},
		DPub:      dpub,
		EncLZS:    []byte{1, 2, 3, 4},
		EncSymKey: []byte{9, 8, 7},
		EncTTL:    []byte{5},
		Payload:   []byte("encrypted payload bytes"),
		Seq:       42,
	}
}

// envelopeFromCore fills dst from a simulator envelope's wire-visible
// fields. Ciphertext slices are copied, not aliased — the simulator reuses
// its buffers.
func envelopeFromCore(dst *live.Envelope, env *core.Envelope) {
	owner := live.None
	if env.DPub != nil {
		owner = int32(env.DPub.Owner())
	}
	*dst = live.Envelope{
		Kind:      env.Kind,
		PS:        env.PS,
		PD:        env.PD,
		LZD:       env.LZD,
		TD:        env.TD,
		Dir:       env.Dir,
		Hdiv:      env.Hdiv,
		Hmax:      env.Hmax,
		Zone:      env.Zone,
		DPubOwner: owner,
		Seq:       env.Seq,
		EncLZS:    append([]byte(nil), env.EncLZS...),
		EncSymKey: append([]byte(nil), env.EncSymKey...),
		EncTTL:    append([]byte(nil), env.EncTTL...),
		EncBitmap: append([]byte(nil), env.EncBitmap...),
		Payload:   append([]byte(nil), env.Payload...),
	}
}

// encode frames env alone, as a daemon sends it, and returns the datagram.
func encode(t testing.TB, env *core.Envelope) []byte {
	t.Helper()
	var we live.Envelope
	envelopeFromCore(&we, env)
	b, err := live.AppendFrame(nil, &live.Frame{Kind: live.KindData, Flags: live.FlagEnvelope, Env: &we})
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return b
}

// decode parses a datagram and returns the envelope it carries.
func decode(b []byte) (*live.Envelope, error) {
	var f live.Frame
	if err := live.DecodeFrame(b, &f); err != nil {
		return nil, err
	}
	if f.Env == nil {
		return nil, errors.New("frame carries no envelope")
	}
	return f.Env, nil
}

// envelopeOffset is where the envelope section starts in a datagram from
// encode: the frame header and the GPSR leg state come first.
func envelopeOffset(t testing.TB) int {
	t.Helper()
	b, err := live.AppendFrame(nil, &live.Frame{Kind: live.KindData})
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return len(b)
}

func rectBits(r geo.Rect) [4]uint64 {
	return [4]uint64{math.Float64bits(r.Min.X), math.Float64bits(r.Min.Y),
		math.Float64bits(r.Max.X), math.Float64bits(r.Max.Y)}
}

func pointBits(p geo.Point) [2]uint64 {
	return [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)}
}

// wireMismatch names the first wire-visible field of env that got does not
// carry exactly (floats compared bit for bit), or returns "". FinalLeg is
// not an envelope field on air: it rides in the frame flags.
func wireMismatch(got *live.Envelope, env *core.Envelope) string {
	owner := live.None
	if env.DPub != nil {
		owner = int32(env.DPub.Owner())
	}
	switch {
	case got.Kind != env.Kind:
		return "Kind"
	case got.PS != env.PS:
		return "PS"
	case got.PD != env.PD:
		return "PD"
	case rectBits(got.LZD) != rectBits(env.LZD):
		return "LZD"
	case pointBits(got.TD) != pointBits(env.TD):
		return "TD"
	case got.Dir != env.Dir:
		return "Dir"
	case got.Hdiv != env.Hdiv:
		return "Hdiv"
	case got.Hmax != env.Hmax:
		return "Hmax"
	case rectBits(got.Zone) != rectBits(env.Zone):
		return "Zone"
	case got.DPubOwner != owner:
		return "DPubOwner"
	case got.Seq != env.Seq:
		return "Seq"
	}
	for _, blob := range []struct {
		name      string
		got, want []byte
	}{
		{"EncLZS", got.EncLZS, env.EncLZS},
		{"EncSymKey", got.EncSymKey, env.EncSymKey},
		{"EncTTL", got.EncTTL, env.EncTTL},
		{"EncBitmap", got.EncBitmap, env.EncBitmap},
		{"Payload", got.Payload, env.Payload},
	} {
		if !bytes.Equal(blob.got, blob.want) {
			return blob.name
		}
	}
	return ""
}

// TestCodecRoundTrip carries one envelope of each kind through the codec:
// a data packet, an ack without a destination key, and a NAK with an
// encrypted bitmap and a vertical partition.
func TestCodecRoundTrip(t *testing.T) {
	ack := sampleEnvelope()
	ack.Kind, ack.DPub, ack.Payload = core.KindAck, nil, nil
	nak := sampleEnvelope()
	nak.Kind, nak.Dir, nak.EncBitmap = core.KindNAK, geo.Vertical, []byte{6, 6}
	for name, env := range map[string]*core.Envelope{
		"data": sampleEnvelope(), "ack": ack, "nak": nak,
	} {
		got, err := decode(encode(t, env))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f := wireMismatch(got, env); f != "" {
			t.Errorf("%s: %s lost on the wire:\n got %+v\nwant %+v", name, f, got, env)
		}
	}
}

// TestFloatFidelity: the partition's coordinates travel as IEEE-754 bits,
// so full-precision, signed-zero, subnormal and extreme values all
// survive exactly.
func TestFloatFidelity(t *testing.T) {
	env := sampleEnvelope()
	env.TD = geo.Point{X: math.Pi * 100, Y: math.Sqrt2 * 300}
	env.LZD = geo.Rect{
		Min: geo.Point{X: math.Copysign(0, -1), Y: math.SmallestNonzeroFloat64},
		Max: geo.Point{X: 1.0 / 3, Y: math.Nextafter(250, 500)},
	}
	env.Zone = geo.Rect{Max: geo.Point{X: math.MaxFloat64, Y: math.E * 1e-300}}
	got, err := decode(encode(t, env))
	if err != nil {
		t.Fatal(err)
	}
	if f := wireMismatch(got, env); f != "" {
		t.Fatalf("float fidelity lost in %s: %+v vs %+v", f, got, env)
	}
}

// TestWireFitsConfiguredPacketSize: a realistic data envelope — real
// session ciphertexts and a 20 ms voice frame — fits the configured
// packet size (512 bytes). ALERT's packet is the frame's envelope
// section; the header before it is the daemon's link-layer,
// emulated-medium and GPSR leg state, which adds envelopeOffset bytes.
func TestWireFitsConfiguredPacketSize(t *testing.T) {
	src := rng.New(2)
	suite := crypt.NewFastSuite(src)
	pub, _ := suite.GenerateKeyPair(1)
	key, encKey, encLZS, err := core.NewSession(suite, pub, geo.Rect{Max: geo.Point{X: 1, Y: 1}}, src)
	if err != nil {
		t.Fatal(err)
	}
	encTTL, err := suite.EncryptPub(pub, []byte{0, 10}) // a TTL is two bytes
	if err != nil {
		t.Fatal(err)
	}
	env := sampleEnvelope()
	env.DPub = pub
	env.EncSymKey, env.EncLZS, env.EncTTL = encKey, encLZS, encTTL
	env.Payload = crypt.SymSeal(key, make([]byte, 160), src)
	budget := experiment.DefaultScenario().PacketSize
	wire, at := encode(t, env), envelopeOffset(t)
	if n := len(wire) - at; n > budget {
		t.Fatalf("data envelope is %d bytes > %d-byte packet", n, budget)
	}
	t.Logf("envelope %d bytes, framed %d bytes", len(wire)-at, len(wire))
}

// TestUnmarshalErrors holds the decoder to core's value domains: every
// envelope kind through KindNAK and both partition directions decode to
// themselves, any other byte in either position is ErrBadField, and a
// trailing byte is ErrTrailing. (Truncation at every prefix is live's
// TestDecodeErrors.)
func TestUnmarshalErrors(t *testing.T) {
	wire := encode(t, sampleEnvelope())
	if _, err := decode(append(append([]byte(nil), wire...), 0xFF)); !errors.Is(err, live.ErrTrailing) {
		t.Errorf("trailing byte: error %v, want ErrTrailing", err)
	}
	kindAt := envelopeOffset(t)
	for _, c := range []struct {
		name    string
		at      int
		largest int
		get     func(*live.Envelope) int
	}{
		{"kind", kindAt, int(core.KindNAK), func(e *live.Envelope) int { return int(e.Kind) }},
		// After kind, PS, PD, L_ZD and TD.
		{"direction", kindAt + 1 + 20 + 20 + 32 + 16, int(geo.Horizontal),
			func(e *live.Envelope) int { return int(e.Dir) }},
	} {
		b := append([]byte(nil), wire...)
		for v := 0; v < 256; v++ {
			b[c.at] = byte(v)
			env, err := decode(b)
			switch {
			case v > c.largest:
				if !errors.Is(err, live.ErrBadField) {
					t.Errorf("%s byte %d: error %v, want ErrBadField", c.name, v, err)
				}
			case err != nil:
				t.Errorf("%s byte %d rejected: %v", c.name, v, err)
			case c.get(env) != v:
				t.Errorf("%s byte %d decoded as %d", c.name, v, c.get(env))
			}
		}
	}
}

// TestQuickCodecRoundTrip: arbitrary envelopes round-trip field for field.
func TestQuickCodecRoundTrip(t *testing.T) {
	suite := crypt.NewFastSuite(rng.New(3))
	f := func(kind uint8, ps, pd [20]byte, lzd, zone [4]float64, td [2]float64,
		vertical bool, hdiv, hmax uint16, owner int16, lzs, key, ttl, bm, payload []byte,
		seq uint32) bool {
		env := &core.Envelope{
			Kind: core.Kind(kind % 3),
			PS:   ps,
			PD:   pd,
			Partition: core.Partition{
				LZD:  geo.Rect{Min: geo.Point{X: lzd[0], Y: lzd[1]}, Max: geo.Point{X: lzd[2], Y: lzd[3]}},
				TD:   geo.Point{X: td[0], Y: td[1]},
				Dir:  geo.Horizontal,
				Hdiv: int(hdiv),
				Hmax: int(hmax),
				Zone: geo.Rect{Min: geo.Point{X: zone[0], Y: zone[1]}, Max: geo.Point{X: zone[2], Y: zone[3]}},
			},
			EncLZS:    lzs,
			EncSymKey: key,
			EncTTL:    ttl,
			EncBitmap: bm,
			Payload:   payload,
			Seq:       int(seq),
		}
		if vertical {
			env.Dir = geo.Vertical
		}
		if owner >= 0 {
			env.DPub, _ = suite.GenerateKeyPair(int(owner))
		}
		got, err := decode(encode(t, env))
		return err == nil && wireMismatch(got, env) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnmarshalRobust writes random bytes at random offsets of an
// envelope frame's envelope section: the decoder either rejects the
// datagram or accepts one that re-encodes to the same bytes. A panic
// fails the test.
func TestQuickUnmarshalRobust(t *testing.T) {
	wire := encode(t, sampleEnvelope())
	at := envelopeOffset(t)
	f := func(offs []uint16, vals []byte) bool {
		b := append([]byte(nil), wire...)
		for i := range min(len(offs), len(vals)) {
			b[at+int(offs[i])%(len(b)-at)] = vals[i]
		}
		var fr live.Frame
		if live.DecodeFrame(b, &fr) != nil {
			return true
		}
		re, err := live.AppendFrame(nil, &fr)
		return err == nil && bytes.Equal(re, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLiveEnvelopesFitWire encodes every ALERT envelope a paper-default
// simulator run puts on the air: each must round-trip through the frame
// codec and, framed alone, fit the scenario's packet size (512 bytes).
func TestLiveEnvelopesFitWire(t *testing.T) {
	sc := experiment.DefaultScenario()
	w, err := experiment.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	var we live.Envelope
	var got live.Frame
	var buf []byte
	checked, largest := 0, 0
	w.Med.TapSend(func(tx medium.Transmission) {
		var env *core.Envelope
		switch v := tx.Payload.(type) {
		case *core.ZoneDelivery:
			env = v.Env
		case *gpsr.Packet:
			env, _ = v.Payload.(*core.Envelope)
		}
		if env == nil {
			return
		}
		checked++
		envelopeFromCore(&we, env)
		b, err := live.AppendFrame(buf[:0], &live.Frame{Kind: live.KindData, Flags: live.FlagEnvelope, Env: &we})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		buf = b
		largest = max(largest, len(b))
		if len(b) > sc.PacketSize {
			t.Fatalf("on-air envelope frames to %d bytes > %d", len(b), sc.PacketSize)
		}
		if err := live.DecodeFrame(b, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got.Env, &we) {
			t.Fatalf("round-trip lost fields:\n got %+v\nwant %+v", got.Env, we)
		}
	})
	w.StartWorkload(w.ChoosePairs())
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no envelopes observed")
	}
	t.Logf("%d on-air envelopes encoded, largest frame %d bytes", checked, largest)
}

// FuzzUnmarshal fuzzes the envelope section of the on-air decoder: the
// fuzzer's bytes follow a fixed, valid frame header with FlagEnvelope set,
// so every input reaches the envelope fields (FuzzWireCodec fuzzes whole
// frames). The decoder must never panic, and a datagram it accepts must
// re-encode to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	wire := encode(f, sampleEnvelope())
	at := envelopeOffset(f)
	header := wire[:at:at]
	f.Add(wire[at:])
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xFF}, 120))
	f.Fuzz(func(t *testing.T, section []byte) {
		data := append(header, section...)
		var fr live.Frame
		if err := live.DecodeFrame(data, &fr); err != nil {
			return
		}
		re, err := live.AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("accepted datagram failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", data, re)
		}
	})
}
