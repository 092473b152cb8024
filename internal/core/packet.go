// Packet format of ALERT (Section 2.5, Fig. 4). A single universal layout
// serves RREQ, RREP and NAK: pseudonyms of the endpoints, the positions of
// the H-th partitioned source and destination zones, the current temporary
// destination, the partition-direction bit, the division counters h and H,
// the encrypted session key, the encrypted TTL (source-anonymity cover
// discrimination), and the encrypted Bitmap (intersection-attack defence).
// The simulator hands *Envelope values to the medium directly; the bytes
// that go on air are internal/live's frame codec, whose envelope section
// carries these fields.

package core

import (
	"encoding/binary"
	"errors"
	"math"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/telemetry"
)

// Kind distinguishes the three packet roles sharing ALERT's universal
// format. NAK packets carry an empty data field.
type Kind uint8

const (
	// KindData is a routed application packet (RREQ/RREP role).
	KindData Kind = iota
	// KindAck is the destination's delivery confirmation to the source.
	KindAck
	// KindNAK reports lost sequence numbers back to the source.
	KindNAK
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	default:
		return "nak"
	}
}

// Partition is the cleartext routing state of an ALERT packet: exactly the
// fields the paper sends in the clear (L_{Z_D}, TD, the direction bit, h
// and H), because every random forwarder needs them to route. Step reads
// and advances it.
//
// Zone mirrors the current partition zone. On the wire the paper encodes it
// implicitly — it is recoverable from the division history — but carrying
// the rectangle explicitly keeps each forwarder's partition step
// self-contained.
type Partition struct {
	// LZD is the position of the H-th partitioned destination zone.
	LZD geo.Rect
	// TD is the currently selected temporary destination.
	TD geo.Point
	// Dir is the partition direction bit, flipped by each RF.
	Dir geo.Direction
	// Hdiv is h, the divisions performed so far; Hmax is H.
	Hdiv, Hmax int
	// Zone is the current partition zone (see type comment).
	Zone geo.Rect
	// FinalLeg marks the last GPSR leg into Z_D itself (set once h
	// reaches H or the partition can no longer separate). The paper
	// implies it by h == H; live frames carry it as a flag.
	FinalLeg bool
}

// Envelope is an ALERT packet as it travels between random forwarders.
//
// Fields prefixed Enc hold real ciphertext: a forwarder relaying the
// envelope cannot read the source zone, the session key, the TTL or the
// bitmap — tests assert this. The embedded Partition is the cleartext
// routing state.
type Envelope struct {
	Kind Kind
	// PS and PD are the source and destination pseudonyms.
	PS, PD crypt.Pseudonym
	Partition
	// EncLZS is the source zone position encrypted under the
	// destination's public key (only D can learn where to send
	// confirmations and NAKs).
	EncLZS []byte
	// DPub is the destination's public key, carried so the last random
	// forwarder can encrypt the Bitmap under K_pub^D (Section 3.3). A
	// public key is pseudonymous: it reveals neither identity nor
	// position to observers without the location service's identity
	// mapping.
	DPub crypt.PubKey
	// EncSymKey is the session key K_s encrypted under K_pub^D.
	EncSymKey []byte
	// EncTTL is the TTL field encrypted under the first relay's public
	// key; covering packets carry nil here, so only the true next relay
	// can validate and forward (Section 2.6).
	EncTTL []byte
	// EncBitmap is the bit-flip mask encrypted under K_pub^D
	// (Section 3.3); nil when the intersection guard is off.
	EncBitmap []byte
	// Payload is the application data encrypted under the session key
	// (after bitmap mutation when the guard is active). Empty for NAKs.
	Payload []byte
	// Seq is the session sequence number.
	Seq int
	// relayed lists the zone nodes that already decided whether to
	// re-broadcast this envelope during the Z_D zone broadcast, the origin
	// included, so the one-round in-zone relay terminates (sim
	// bookkeeping; real nodes dedup by packet id).
	relayed []medium.NodeID

	// flight is simulation bookkeeping (metrics record, retry state);
	// it stands outside the wire format.
	flight *flight
	// ackFor links a KindAck/KindNAK envelope to the flight(s) it
	// confirms; in a real deployment this is part of the encrypted
	// payload only S can read.
	ackFor *flight
	// nakSeqs lists the sequence numbers a NAK reports missing.
	nakSeqs []int
}

// ZoneDelivery is the last-leg payload inside the destination zone.
type ZoneDelivery struct {
	Env *Envelope
	// Step is 1 for the initial broadcast/multicast by the last random
	// forwarder, 2 for a holder's delayed one-hop re-broadcast
	// (Section 3.3, Fig. 5c).
	Step int
}

// envTrace returns the telemetry packet id an envelope's events attribute
// to: its flight's metrics sequence number, or NoTrace for ack/NAK
// envelopes that have no flight of their own.
func envTrace(env *Envelope) int {
	if env.flight != nil {
		return env.flight.rec.Seq
	}
	return telemetry.NoTrace
}

// TelemetryTrace implements telemetry.Traceable, so frames carrying a zone
// delivery attribute to the packet that triggered it.
func (z *ZoneDelivery) TelemetryTrace() int { return envTrace(z.Env) }

// coverPacket is notify-and-go cover traffic: a few random bytes with no
// valid (decryptable) TTL, dropped by every receiver after a failed
// decryption attempt (Section 2.6).
type coverPacket struct {
	Junk []byte
}

// encodeRect serializes a zone position (two corners) for encryption.
func encodeRect(r geo.Rect) []byte {
	buf := make([]byte, 32)
	binary.BigEndian.PutUint64(buf[0:], math.Float64bits(r.Min.X))
	binary.BigEndian.PutUint64(buf[8:], math.Float64bits(r.Min.Y))
	binary.BigEndian.PutUint64(buf[16:], math.Float64bits(r.Max.X))
	binary.BigEndian.PutUint64(buf[24:], math.Float64bits(r.Max.Y))
	return buf
}

// decodeRect parses a zone position serialized by encodeRect.
func decodeRect(buf []byte) (geo.Rect, error) {
	if len(buf) != 32 {
		return geo.Rect{}, errors.New("core: malformed zone position")
	}
	return geo.Rect{
		Min: geo.Point{
			X: math.Float64frombits(binary.BigEndian.Uint64(buf[0:])),
			Y: math.Float64frombits(binary.BigEndian.Uint64(buf[8:])),
		},
		Max: geo.Point{
			X: math.Float64frombits(binary.BigEndian.Uint64(buf[16:])),
			Y: math.Float64frombits(binary.BigEndian.Uint64(buf[24:])),
		},
	}, nil
}

// encodeTTL serializes a TTL value for the EncTTL field.
func encodeTTL(ttl int) []byte {
	var buf [2]byte
	binary.BigEndian.PutUint16(buf[:], uint16(ttl))
	return buf[:]
}
