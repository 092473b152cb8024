// The live wire codec: a deterministic, versioned binary layout for the
// frames that exist as in-memory Go structs inside the simulator, and the
// only codec for ALERT's packet format (Fig. 4) — its envelope section is
// what goes on air. One datagram carries one frame. Everything is
// big-endian; floats travel as IEEE-754 bits (math.Float64bits), byte
// fields are u16-length-prefixed and the whole frame is bounded by
// MaxFrame — a decoder can never be made to allocate more than one
// datagram's worth of memory.
//
// Layout (all integers big-endian):
//
//	magic[2] version[1] kind[1]                          — header
//	sendID[8] from[4] to[4]                              — link layer
//	(ack frames end here)
//	flags[1] vtime[8] size[4] srcPos[16]                 — emulated medium
//	flow[4] seq[4] zoneStep[1]                           — measurement id
//	dest[16] deliverTo[4] hopBudget[2] hops[2]           — GPSR leg state
//	mode[1] entryDist[8] prev[4] firstFrom[4] firstTo[4]
//	pathLen[2] path[4*n]
//	(envelope, iff FlagEnvelope:)
//	eKind[1] ps[20] pd[20] lzd[32] td[16] dir[1]
//	hdiv[2] hmax[2] zone[32] dpubOwner[4] eseq[4]
//	encLZS encSymKey encTTL encBitmap payload            — 2-byte len each
//
// The codec is strict both ways: unknown frame or envelope kinds, a
// direction byte above 1, truncated fields, oversize lengths and trailing
// garbage are all decode errors (FuzzWireCodec pins this), and a decoded
// frame re-encodes to the identical byte string.

// Package live runs ALERT and GPSR over real UDP sockets: a deterministic
// wire codec, the Daemon (one node's router stack behind a loopback UDP
// socket), a coordinator that replays internal/mobility trajectories onto
// an in-process daemon fleet while emulating the radio medium, and the
// sim-vs-live comparison harness that keeps the live system honest against
// the simulator (DESIGN.md, "Live mode").
package live

import (
	"errors"
	"fmt"
	"math"

	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/medium"
)

// Wire framing constants.
const (
	// Magic0 and Magic1 open every frame.
	Magic0 = 0xA1
	Magic1 = 0x54
	// Version is the current wire format version; a daemon rejects frames
	// from any other version rather than guessing at field offsets.
	Version = 1
	// MaxFrame bounds one encoded frame (and therefore one datagram and
	// one decode allocation). Well under the 64 KiB UDP limit.
	MaxFrame = 16 * 1024
	// maxField bounds each length-prefixed byte field.
	maxField = 4 * 1024
	// maxPath bounds the carried path (DefaultScenario traffic stays far
	// below; a frame that long is corrupt or adversarial).
	maxPath = 512
)

// FrameKind distinguishes the datagram types.
type FrameKind uint8

const (
	// KindData is a routed protocol frame (a GPSR leg hop or an ALERT
	// zone-delivery step).
	KindData FrameKind = 1
	// KindAck is the link-layer stop-and-wait acknowledgement.
	KindAck FrameKind = 2
)

// Frame flags.
const (
	// FlagEnvelope marks a frame carrying an ALERT envelope.
	FlagEnvelope = 1 << 0
	// FlagNoAck marks a frame outside the ARQ handshake (the emulated
	// broadcast copies of a zone delivery): the receiver must not ack it
	// and the sender never retries it, mirroring the simulator's
	// Broadcast path.
	FlagNoAck = 1 << 1
	// FlagFinalLeg marks an ALERT packet riding its last leg into Z_D
	// (core.Partition.FinalLeg, carried on air so the next random
	// forwarder skips straight to the zone broadcast).
	FlagFinalLeg = 1 << 2
)

// None marks an absent node id on the wire (gpsr.NoDeliverTo's encoding).
const None int32 = -1

// Envelope mirrors the wire-visible fields of core.Envelope — the
// core.Partition a forwarder reads (FinalLeg rides in the frame flags) plus
// the opaque ciphertext fields it relays. DPubOwner names the destination
// key in place of the in-memory crypt.PubKey (the location service hands
// out keys; the wire only names them). It is carried but unused: live runs
// without the intersection guard, the one reader of K_pub^D in transit.
type Envelope struct {
	Kind      core.Kind
	PS, PD    crypt.Pseudonym
	LZD       geo.Rect
	TD        geo.Point
	Dir       geo.Direction
	Hdiv      int
	Hmax      int
	Zone      geo.Rect
	DPubOwner int32 // None when the envelope carries no destination key
	Seq       int
	EncLZS    []byte
	EncSymKey []byte
	EncTTL    []byte
	EncBitmap []byte
	Payload   []byte
}

// Frame is one on-air datagram: link-layer identity, the emulated-medium
// accounting the receiver needs (sender position, virtual-time
// accumulator), one GPSR leg's routing state, and optionally an ALERT
// envelope. Ack frames use only Kind, SendID, From and To.
type Frame struct {
	Kind   FrameKind
	SendID uint64
	From   int32
	To     int32 // None for the emulated-broadcast copies
	Flags  uint8
	// VTime is the packet's accumulated virtual latency: every
	// transmission adds the emulated medium's delay model, so measured
	// latency is timescale-free (DESIGN.md, "Live mode").
	VTime float64
	// Size is the emulated on-air size in bytes (the delay model's
	// input); the actual datagram length differs.
	Size   uint32
	SrcPos geo.Point
	// Flow and Seq identify the packet for measurement (flow id assigned
	// by the coordinator, sequence within the flow).
	Flow uint32
	Seq  uint32
	// ZoneStep is 0 for routed legs, 1/2 for ALERT zone-delivery steps.
	ZoneStep uint8

	// The GPSR leg state (gpsr.Packet's exported fields plus
	// gpsr.ForwardState).
	Dest      geo.Point
	DeliverTo int32
	HopBudget uint16
	Hops      uint16
	Mode      gpsr.Mode
	EntryDist float64
	Prev      int32
	FirstFrom int32
	FirstTo   int32
	Path      []int32

	Env *Envelope
}

// Codec error values; decode errors wrap one of these.
var (
	ErrBadMagic   = errors.New("live: bad frame magic")
	ErrBadVersion = errors.New("live: unsupported wire version")
	ErrBadKind    = errors.New("live: unknown frame kind")
	ErrBadField   = errors.New("live: field value out of range")
	ErrTruncated  = errors.New("live: truncated frame")
	ErrOversize   = errors.New("live: field exceeds wire bounds")
	ErrTrailing   = errors.New("live: trailing bytes after frame")
)

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }
func appendI32(b []byte, v int32) []byte   { return appendU32(b, uint32(v)) }
func appendPoint(b []byte, p geo.Point) []byte {
	return appendF64(appendF64(b, p.X), p.Y)
}
func appendRect(b []byte, r geo.Rect) []byte {
	return appendPoint(appendPoint(b, r.Min), r.Max)
}

func appendBytes(b []byte, v []byte) ([]byte, error) {
	if len(v) > maxField {
		return b, fmt.Errorf("%w: %d-byte field", ErrOversize, len(v))
	}
	b = appendU16(b, uint16(len(v)))
	return append(b, v...), nil
}

// AppendFrame encodes f onto dst and returns the extended slice. The
// encoding is deterministic: equal frames produce equal bytes. Frames that
// exceed the wire bounds (path or byte fields too long) are an error.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if f.Kind != KindData && f.Kind != KindAck {
		return dst, fmt.Errorf("%w: %d", ErrBadKind, f.Kind)
	}
	b := append(dst, Magic0, Magic1, Version, byte(f.Kind))
	b = appendU64(b, f.SendID)
	b = appendI32(b, f.From)
	b = appendI32(b, f.To)
	if f.Kind == KindAck {
		return b, nil
	}
	b = append(b, f.Flags)
	b = appendF64(b, f.VTime)
	b = appendU32(b, f.Size)
	b = appendPoint(b, f.SrcPos)
	b = appendU32(b, f.Flow)
	b = appendU32(b, f.Seq)
	b = append(b, f.ZoneStep)
	b = appendPoint(b, f.Dest)
	b = appendI32(b, f.DeliverTo)
	b = appendU16(b, f.HopBudget)
	b = appendU16(b, f.Hops)
	b = append(b, byte(f.Mode))
	b = appendF64(b, f.EntryDist)
	b = appendI32(b, f.Prev)
	b = appendI32(b, f.FirstFrom)
	b = appendI32(b, f.FirstTo)
	if len(f.Path) > maxPath {
		return dst, fmt.Errorf("%w: %d-hop path", ErrOversize, len(f.Path))
	}
	b = appendU16(b, uint16(len(f.Path)))
	for _, id := range f.Path {
		b = appendI32(b, id)
	}
	if f.Env == nil {
		if f.Flags&FlagEnvelope != 0 {
			return dst, fmt.Errorf("%w: FlagEnvelope with nil Env", ErrBadKind)
		}
		if len(b)-len(dst) > MaxFrame {
			return dst, fmt.Errorf("%w: %d-byte frame", ErrOversize, len(b)-len(dst))
		}
		return b, nil
	}
	if f.Flags&FlagEnvelope == 0 {
		return dst, fmt.Errorf("%w: Env without FlagEnvelope", ErrBadKind)
	}
	e := f.Env
	b = append(b, byte(e.Kind))
	b = append(b, e.PS[:]...)
	b = append(b, e.PD[:]...)
	b = appendRect(b, e.LZD)
	b = appendPoint(b, e.TD)
	b = append(b, byte(e.Dir))
	b = appendU16(b, uint16(e.Hdiv))
	b = appendU16(b, uint16(e.Hmax))
	b = appendRect(b, e.Zone)
	b = appendI32(b, e.DPubOwner)
	b = appendU32(b, uint32(e.Seq))
	var err error
	for _, field := range [][]byte{e.EncLZS, e.EncSymKey, e.EncTTL, e.EncBitmap, e.Payload} {
		if b, err = appendBytes(b, field); err != nil {
			return dst, err
		}
	}
	if len(b)-len(dst) > MaxFrame {
		return dst, fmt.Errorf("%w: %d-byte frame", ErrOversize, len(b)-len(dst))
	}
	return b, nil
}

// reader is a bounds-checked cursor over one datagram.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: want %d bytes at offset %d of %d",
			ErrTruncated, n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func (r *reader) i32() int32       { return int32(r.u32()) }
func (r *reader) f64() float64     { return math.Float64frombits(r.u64()) }
func (r *reader) point() geo.Point { return geo.Point{X: r.f64(), Y: r.f64()} }
func (r *reader) rect() geo.Rect   { return geo.Rect{Min: r.point(), Max: r.point()} }

// bytesInto reads a length-prefixed field into dst's storage (grown as
// needed); nil-length fields decode to nil so round-trips are exact.
func (r *reader) bytesInto(dst []byte) []byte {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	if n > maxField {
		r.err = fmt.Errorf("%w: %d-byte field", ErrOversize, n)
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append(dst[:0], b...)
}

// DecodeFrame decodes one datagram into f, reusing f's Path, Env and byte
// field storage when capacities allow (the daemon's receive path decodes
// into pooled frames). Any violation of the wire contract — bad magic or
// version, unknown kind, truncation, oversize fields, trailing bytes — is
// an error, and f's contents are unspecified after one.
func DecodeFrame(data []byte, f *Frame) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("%w: %d-byte datagram", ErrOversize, len(data))
	}
	r := reader{buf: data}
	h := r.take(4)
	if h == nil {
		return r.err
	}
	if h[0] != Magic0 || h[1] != Magic1 {
		return fmt.Errorf("%w: %02x%02x", ErrBadMagic, h[0], h[1])
	}
	if h[2] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, h[2])
	}
	kind := FrameKind(h[3])
	if kind != KindData && kind != KindAck {
		return fmt.Errorf("%w: %d", ErrBadKind, h[3])
	}
	env := f.Env
	path := f.Path[:0]
	*f = Frame{Kind: kind}
	f.SendID = r.u64()
	f.From = r.i32()
	f.To = r.i32()
	if kind == KindAck {
		if r.err == nil && r.off != len(data) {
			return fmt.Errorf("%w: %d bytes", ErrTrailing, len(data)-r.off)
		}
		return r.err
	}
	f.Flags = r.u8()
	f.VTime = r.f64()
	f.Size = r.u32()
	f.SrcPos = r.point()
	f.Flow = r.u32()
	f.Seq = r.u32()
	f.ZoneStep = r.u8()
	f.Dest = r.point()
	f.DeliverTo = r.i32()
	f.HopBudget = r.u16()
	f.Hops = r.u16()
	f.Mode = gpsr.Mode(r.u8())
	f.EntryDist = r.f64()
	f.Prev = r.i32()
	f.FirstFrom = r.i32()
	f.FirstTo = r.i32()
	n := int(r.u16())
	if r.err != nil {
		return r.err
	}
	if n > maxPath {
		return fmt.Errorf("%w: %d-hop path", ErrOversize, n)
	}
	for i := 0; i < n; i++ {
		path = append(path, r.i32())
	}
	if n > 0 {
		f.Path = path
	} else {
		f.Path = path[:0]
	}
	if f.Flags&FlagEnvelope != 0 {
		if env == nil {
			env = &Envelope{}
		}
		encLZS, encSymKey := env.EncLZS, env.EncSymKey
		encTTL, encBitmap, payload := env.EncTTL, env.EncBitmap, env.Payload
		*env = Envelope{}
		if env.Kind = core.Kind(r.u8()); env.Kind > core.KindNAK {
			return fmt.Errorf("%w: envelope kind %d", ErrBadField, env.Kind)
		}
		copy(env.PS[:], r.take(len(env.PS)))
		copy(env.PD[:], r.take(len(env.PD)))
		env.LZD = r.rect()
		env.TD = r.point()
		if env.Dir = geo.Direction(r.u8()); env.Dir > geo.Horizontal {
			return fmt.Errorf("%w: direction %d", ErrBadField, env.Dir)
		}
		env.Hdiv = int(r.u16())
		env.Hmax = int(r.u16())
		env.Zone = r.rect()
		env.DPubOwner = r.i32()
		env.Seq = int(r.u32())
		env.EncLZS = r.bytesInto(encLZS)
		env.EncSymKey = r.bytesInto(encSymKey)
		env.EncTTL = r.bytesInto(encTTL)
		env.EncBitmap = r.bytesInto(encBitmap)
		env.Payload = r.bytesInto(payload)
		f.Env = env
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(data)-r.off)
	}
	return nil
}

// ForwardState converts the frame's carried GPSR decision state.
func (f *Frame) ForwardState() gpsr.ForwardState {
	return gpsr.ForwardState{
		Mode:      f.Mode,
		EntryDist: f.EntryDist,
		Prev:      medium.NodeID(f.Prev),
		FirstFrom: medium.NodeID(f.FirstFrom),
		FirstTo:   medium.NodeID(f.FirstTo),
	}
}

// SetForwardState stores GPSR decision state into the frame.
func (f *Frame) SetForwardState(st gpsr.ForwardState) {
	f.Mode = st.Mode
	f.EntryDist = st.EntryDist
	f.Prev = int32(st.Prev)
	f.FirstFrom = int32(st.FirstFrom)
	f.FirstTo = int32(st.FirstTo)
}
