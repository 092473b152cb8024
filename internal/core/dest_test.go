package core

import (
	"bytes"
	"testing"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

// twoClusters is a static field at H = 1: a 5 × 5 grid 200 m apart, so a
// node reaches only its row and column neighbours. The source sits mid-row
// in the left half and the destination mid-row in the right half, each
// with three zone members in range. Every zone member that hears a zone
// broadcast has a zone neighbour beyond the sender's reach, so it relays,
// and each addressee hears every broadcast from at least three senders.
func twoClusters(t *testing.T) (*sim.Engine, *node.Network, *Protocol) {
	t.Helper()
	const s, d = 7, 17
	var pos []geo.Point
	for col := 0; col < 5; col++ {
		for row := 0; row < 5; row++ {
			pos = append(pos, geo.Point{X: 90 + 200*float64(col), Y: 100 + 200*float64(row)})
		}
	}
	eng := sim.NewEngine()
	src := rng.New(7)
	med := medium.MustNew(eng, &pinned{pos: pos}, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.DefaultCostModel(), src)
	cfg := DefaultConfig()
	cfg.H = 1
	prot := MustNew(net, locservice.New(net, true), cfg, 512, src)
	if zd := prot.DestZoneFor(d); zd.Contains(pos[s]) || !zd.Contains(pos[d]) {
		t.Fatalf("Z_D %v does not split S from D", zd)
	}
	return eng, net, prot
}

// copiesHeard counts, per sequence number, the zone-delivery copies that
// node at receives from distinct senders.
func copiesHeard(med *medium.Medium, at medium.NodeID) map[int]map[medium.NodeID]bool {
	heard := map[int]map[medium.NodeID]bool{}
	med.TapRecv(func(r medium.Reception) {
		zd, ok := r.Payload.(*ZoneDelivery)
		if !ok || r.To != at {
			return
		}
		if heard[zd.Env.Seq] == nil {
			heard[zd.Env.Seq] = map[medium.NodeID]bool{}
		}
		heard[zd.Env.Seq][r.From] = true
	})
	return heard
}

// TestAddresseeOpensOnce: the destination hears every packet's zone
// broadcast from the origin and from at least two relays, and opens one
// copy of each — one symmetric open per packet and the session's two
// public-key decryptions once, the cost model's DestCharge.
func TestAddresseeOpensOnce(t *testing.T) {
	const s, d, packets = 7, 17, 5
	t.Run("data", func(t *testing.T) {
		eng, net, prot := twoClusters(t)
		heard := copiesHeard(net.Med, d)
		for i := 0; i < packets; i++ {
			eng.At(float64(2*i)+0.01, func() { prot.Send(s, d, []byte("x")) })
		}
		eng.RunUntil(20)
		for seq := 0; seq < packets; seq++ {
			if len(heard[seq]) < 3 {
				t.Fatalf("D heard packet %d from %d senders; the field must give it at least 3", seq, len(heard[seq]))
			}
		}
		if got := prot.Counters().Delivered; got != packets {
			t.Fatalf("delivered %d of %d", got, packets)
		}
		// S seals each packet and D opens it; the session's key and
		// source zone are sealed and opened once.
		if net.Ops.Sym != 2*packets || net.Ops.Pub != 4 {
			t.Fatalf("crypto ops sym %d pub %d, want %d and 4", net.Ops.Sym, net.Ops.Pub, 2*packets)
		}
	})
}

// TestOpenData walks one destination session through the shared open: a
// failed open leaves the session as it was, the first good packet opens
// K_s and Z_S, and later packets, guarded or not, open under the key.
func TestOpenData(t *testing.T) {
	src := rng.New(3)
	suite := crypt.NewFastSuite(src)
	dPub, dPriv := suite.GenerateKeyPair(1)
	otherPub, _ := suite.GenerateKeyPair(2)
	zs := geo.Rect{Min: geo.Point{X: 0, Y: 500}, Max: geo.Point{X: 250, Y: 750}}
	key, encKey, encLZS, err := NewSession(suite, dPub, zs, src)
	if err != nil {
		t.Fatal(err)
	}
	_, foreignKey, foreignLZS, err := NewSession(suite, otherPub, zs, src)
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("voice frame")
	sealed := crypt.SymSeal(key, plain, src)
	mask := crypt.NewBitmap(len(sealed), bitmapBits, src)
	encMask, err := suite.EncryptPub(dPub, mask)
	if err != nil {
		t.Fatal(err)
	}
	shortMask, err := suite.EncryptPub(dPub, mask[1:])
	if err != nil {
		t.Fatal(err)
	}
	opened := DestSession{key: key, zs: zs, opened: true}

	for _, tc := range []struct {
		name                        string
		sess                        DestSession
		encKey, encLZS, bitmap, pay []byte
		ok                          bool
		zs                          geo.Rect // Z_S after a good open
	}{
		{"first packet", DestSession{}, encKey, encLZS, nil, sealed, true, zs},
		{"first packet, source zone unreadable", DestSession{}, encKey, foreignLZS, nil, sealed, true, geo.Rect{}},
		{"later packet ignores the session fields", opened, nil, nil, nil, sealed, true, zs},
		{"guarded packet", opened, nil, nil, encMask, mask.Apply(sealed), true, zs},
		{"guarded first packet", DestSession{}, encKey, encLZS, encMask, mask.Apply(sealed), true, zs},
		{"sealed to another key", DestSession{}, foreignKey, foreignLZS, nil, sealed, false, geo.Rect{}},
		{"session key truncated", DestSession{}, encKey[:7], encLZS, nil, sealed, false, geo.Rect{}},
		{"short ciphertext, first packet", DestSession{}, encKey, encLZS, nil, sealed[:15], false, geo.Rect{}},
		{"short ciphertext, later packet", opened, nil, nil, nil, sealed[:15], false, geo.Rect{}},
		{"bitmap sealed to another key", opened, nil, nil, foreignKey, sealed, false, geo.Rect{}},
		{"bitmap shorter than the payload", opened, nil, nil, shortMask, sealed, false, geo.Rect{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sess
			got, err := s.OpenData(suite, dPriv, tc.encKey, tc.encLZS, tc.bitmap, tc.pay)
			if !tc.ok {
				if err == nil {
					t.Fatalf("opened %q", got)
				}
				if s != tc.sess {
					t.Fatalf("failed open changed the session: %+v -> %+v", tc.sess, s)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, plain) {
				t.Fatalf("plaintext %q, want %q", got, plain)
			}
			if want := (DestSession{key: key, zs: tc.zs, opened: true}); s != want {
				t.Fatalf("session %+v, want %+v", s, want)
			}
		})
	}
}

// FuzzOpenData feeds the shared open arbitrary ciphertext fields, as a
// daemon reads them off the network, with the session open or not. The
// open must never panic, and a failed open must leave the session as it
// was.
func FuzzOpenData(f *testing.F) {
	src := rng.New(5)
	suite := crypt.NewFastSuite(src)
	dPub, dPriv := suite.GenerateKeyPair(1)
	key, encKey, encLZS, err := NewSession(suite, dPub, field, src)
	if err != nil {
		f.Fatal(err)
	}
	sealed := crypt.SymSeal(key, []byte("payload"), src)
	mask := crypt.NewBitmap(len(sealed), bitmapBits, src)
	encMask, err := suite.EncryptPub(dPub, mask)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, encKey, encLZS, []byte(nil), sealed)
	f.Add(true, []byte(nil), []byte(nil), encMask, mask.Apply(sealed))
	f.Add(false, encKey, encLZS, encMask, sealed[:3])
	f.Add(true, []byte{0}, []byte{}, encMask[:9], []byte{})
	f.Fuzz(func(t *testing.T, open bool, encSymKey, encLZS, encBitmap, payload []byte) {
		s := DestSession{}
		if open {
			s = DestSession{key: key, zs: field, opened: true}
		}
		before := s
		if _, err := s.OpenData(suite, dPriv, encSymKey, encLZS, encBitmap, payload); err != nil && s != before {
			t.Fatalf("failed open changed the session: %+v -> %+v", before, s)
		}
	})
}
