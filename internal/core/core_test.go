package core

import (
	"bytes"
	"testing"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/mobility"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

var field = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1000, Y: 1000}}

type world struct {
	eng  *sim.Engine
	net  *node.Network
	loc  *locservice.Service
	prot *Protocol
	mob  mobility.Model
}

func build(seed int64, n int, speed float64, cfg Config) *world {
	eng := sim.NewEngine()
	src := rng.New(seed)
	var mob mobility.Model
	if speed <= 0 {
		mob = mobility.NewStatic(field, n, src)
	} else {
		mob = mobility.NewRandomWaypoint(field, n, speed, nil, src)
	}
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.DefaultCostModel(), src)
	net.RotatePseudonyms()
	loc := locservice.New(net, locservice.DefaultConfig())
	prot := MustNew(net, loc, cfg, src)
	return &world{eng: eng, net: net, loc: loc, prot: prot, mob: mob}
}

// farPair returns a source/destination pair at least minDist apart.
func (w *world) farPair(minDist float64) (medium.NodeID, medium.NodeID) {
	for s := 0; s < w.net.N(); s++ {
		for d := s + 1; d < w.net.N(); d++ {
			if w.mob.Position(s, 0).Dist(w.mob.Position(d, 0)) >= minDist {
				return medium.NodeID(s), medium.NodeID(d)
			}
		}
	}
	panic("no far pair found")
}

func TestBasicDelivery(t *testing.T) {
	w := build(1, 200, 0, DefaultConfig())
	s, d := w.farPair(600)
	var gotData []byte
	w.prot.OnDeliver = func(src, dst medium.NodeID, seq int, data []byte, _ float64) {
		if src != s || dst != d || seq != 0 {
			t.Errorf("deliver src=%v dst=%v seq=%v", src, dst, seq)
		}
		gotData = data
	}
	rec, _ := w.prot.Send(s, d, []byte("hello alert"))
	w.eng.RunUntil(30)
	if !rec.Delivered {
		t.Fatal("packet not delivered")
	}
	if !bytes.Equal(gotData, []byte("hello alert")) {
		t.Fatalf("payload corrupted: %q", gotData)
	}
	if rec.Hops < 2 {
		t.Fatalf("hops = %d, want multi-hop for a 600+ m pair", rec.Hops)
	}
	if rec.Latency() <= 0 {
		t.Fatal("latency should be positive")
	}
	if w.prot.Counters().Delivered != 1 {
		t.Fatalf("counters = %+v", w.prot.Counters())
	}
}

func TestDeliveryLatencyIncludesCrypto(t *testing.T) {
	w := build(2, 200, 0, DefaultConfig())
	s, d := w.farPair(500)
	rec, _ := w.prot.Send(s, d, []byte("x"))
	w.eng.RunUntil(30)
	if !rec.Delivered {
		t.Skip("pair undeliverable in this placement")
	}
	// First packet of a session: SymEncrypt + 2 PubEncrypt at S, plus
	// SymDecrypt + 2 PubDecrypt at D = at least 1.006 s with defaults.
	min := w.net.Costs.SymEncrypt + 2*w.net.Costs.PubEncrypt +
		w.net.Costs.SymDecrypt + 2*w.net.Costs.PubDecrypt
	if rec.Latency() < min {
		t.Fatalf("latency %v below session-setup crypto charges %v", rec.Latency(), min)
	}
}

func TestSecondPacketCheaper(t *testing.T) {
	w := build(3, 200, 0, DefaultConfig())
	s, d := w.farPair(500)
	rec1, _ := w.prot.Send(s, d, []byte("first"))
	w.eng.RunUntil(30)
	rec2, _ := w.prot.Send(s, d, []byte("second"))
	w.eng.RunUntil(60)
	if !rec1.Delivered || !rec2.Delivered {
		t.Skip("pair undeliverable in this placement")
	}
	if rec2.Latency() >= rec1.Latency() {
		t.Fatalf("second packet (%v) should be cheaper than session setup (%v)",
			rec2.Latency(), rec1.Latency())
	}
	// Second packet pays only symmetric crypto: well under one pub op.
	if rec2.Latency() >= w.net.Costs.PubEncrypt {
		t.Fatalf("established-session latency %v should be below a public-key op", rec2.Latency())
	}
}

func TestDestZoneContainsDestination(t *testing.T) {
	w := build(4, 200, 0, DefaultConfig())
	s, d := w.farPair(400)
	zd := w.prot.DestZoneFor(d)
	if !zd.Contains(w.net.Node(d).Position()) {
		t.Fatal("Z_D does not contain D")
	}
	// Z_D area is G/2^H.
	wantArea := field.Area() / float64(int(1)<<w.prot.H())
	if zd.Area() != wantArea {
		t.Fatalf("Z_D area %v, want %v", zd.Area(), wantArea)
	}
	_ = s
}

func TestDefaultHFromK(t *testing.T) {
	w := build(5, 200, 0, DefaultConfig())
	// N=200, K=6 -> H = round(log2(200/6)) = 5, the paper's default.
	if w.prot.H() != 5 {
		t.Fatalf("H = %d, want 5", w.prot.H())
	}
	cfg := DefaultConfig()
	cfg.H = 3
	w2 := build(5, 200, 0, cfg)
	if w2.prot.H() != 3 {
		t.Fatal("explicit H not honored")
	}
}

func TestRandomForwardersUsed(t *testing.T) {
	w := build(6, 200, 0, DefaultConfig())
	s, d := w.farPair(800)
	rec, _ := w.prot.Send(s, d, []byte("x"))
	w.eng.RunUntil(30)
	if !rec.Delivered {
		t.Skip("pair undeliverable")
	}
	if rec.RFs < 1 {
		t.Fatalf("RFs = %d; a cross-field route must use random forwarders", rec.RFs)
	}
}

func TestRoutesVaryAcrossPackets(t *testing.T) {
	// ALERT's core anonymity property: consecutive packets of the same
	// S-D pair take different paths (Section 3.1).
	w := build(7, 200, 0, DefaultConfig())
	s, d := w.farPair(700)
	paths := map[string]bool{}
	const packets = 8
	for i := 0; i < packets; i++ {
		rec, _ := w.prot.Send(s, d, []byte("x"))
		w.eng.RunUntil(float64(i+1) * 20)
		key := ""
		for _, id := range rec.Path {
			key += string(rune(id)) + ","
		}
		paths[key] = true
	}
	if len(paths) < packets/2 {
		t.Fatalf("only %d distinct paths out of %d packets", len(paths), packets)
	}
}

func TestPayloadEncryptedOnAir(t *testing.T) {
	w := build(8, 200, 0, DefaultConfig())
	s, d := w.farPair(500)
	secret := []byte("troop positions: grid 7A")
	var observed [][]byte
	w.net.Med.TapSend(func(tx medium.Transmission) {
		switch v := tx.Payload.(type) {
		case *ZoneDelivery:
			observed = append(observed, v.Env.Payload, v.Env.EncLZS, v.Env.EncSymKey)
		}
	})
	w.prot.Send(s, d, secret)
	w.eng.RunUntil(30)
	if len(observed) == 0 {
		t.Skip("no zone delivery observed")
	}
	for _, blob := range observed {
		if bytes.Contains(blob, secret[:10]) {
			t.Fatal("plaintext visible on air")
		}
	}
}

func TestForwarderCannotReadSourceZone(t *testing.T) {
	w := build(9, 200, 0, DefaultConfig())
	s, d := w.farPair(500)
	var encLZS []byte
	w.net.Med.TapSend(func(tx medium.Transmission) {
		if zd, ok := tx.Payload.(*ZoneDelivery); ok && encLZS == nil {
			encLZS = zd.Env.EncLZS
		}
	})
	w.prot.Send(s, d, []byte("x"))
	w.eng.RunUntil(30)
	if encLZS == nil {
		t.Skip("no envelope observed")
	}
	// A non-destination node's key cannot decrypt L_{Z_S}.
	eavesdropper := w.net.Node((d + 1) % medium.NodeID(w.net.N()))
	if eavesdropper.ID == s || eavesdropper.ID == d {
		eavesdropper = w.net.Node((d + 2) % medium.NodeID(w.net.N()))
	}
	if _, err := w.net.Suite.DecryptPub(eavesdropper.Priv, encLZS); err == nil {
		t.Fatal("eavesdropper decrypted the source zone")
	}
	// The destination can.
	if _, err := w.net.Suite.DecryptPub(w.net.Node(d).Priv, encLZS); err != nil {
		t.Fatalf("destination failed to decrypt source zone: %v", err)
	}
}

func TestDeliveryDedup(t *testing.T) {
	w := build(10, 200, 0, DefaultConfig())
	s, d := w.farPair(500)
	deliveries := 0
	w.prot.OnDeliver = func(medium.NodeID, medium.NodeID, int, []byte, float64) {
		deliveries++
	}
	w.prot.Send(s, d, []byte("x"))
	w.eng.RunUntil(30)
	if deliveries > 1 {
		t.Fatalf("duplicate deliveries: %d", deliveries)
	}
}

func TestCompleteTimeoutMarksUndelivered(t *testing.T) {
	// Two isolated clusters guarantee failure.
	eng := sim.NewEngine()
	src := rng.New(11)
	pos := make([]geo.Point, 10)
	for i := 0; i < 5; i++ {
		pos[i] = geo.Point{X: float64(i) * 50, Y: 100}
	}
	for i := 5; i < 10; i++ {
		pos[i] = geo.Point{X: float64(i) * 50, Y: 900}
	}
	mob := &pinned{pos: pos}
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, locservice.DefaultConfig())
	prot := MustNew(net, loc, DefaultConfig(), src)
	rec, _ := prot.Send(0, 9, []byte("x"))
	eng.RunUntil(30)
	if rec.Delivered {
		t.Fatal("cross-island delivery should fail")
	}
	if prot.Collector().Completed() != 1 {
		t.Fatal("flight never completed")
	}
}

type pinned struct{ pos []geo.Point }

func (p *pinned) Position(id int, _ float64) geo.Point { return p.pos[id] }
func (p *pinned) N() int                               { return len(p.pos) }
func (p *pinned) Field() geo.Rect                      { return field }
func (p *pinned) MaxSpeed() float64                    { return 0 }

func TestNotifyAndGoCoverTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NotifyAndGo = true
	w := build(12, 200, 0, cfg)
	s, d := w.farPair(500)
	covers := 0
	w.net.Med.TapSend(func(tx medium.Transmission) {
		if _, ok := tx.Payload.(*coverPacket); ok {
			covers++
		}
	})
	rec, _ := w.prot.Send(s, d, []byte("x"))
	w.eng.RunUntil(30)
	nNeighbors := len(w.net.Med.Neighbors(s))
	if covers == 0 {
		t.Fatal("notify-and-go sent no covering packets")
	}
	if covers != nNeighbors {
		t.Fatalf("covers = %d, neighbors = %d (eta-anonymity should use all)",
			covers, nNeighbors)
	}
	if !rec.Delivered {
		t.Skip("pair undeliverable")
	}
	if w.prot.Counters().CoversSent == 0 || w.prot.Counters().CoversHeard == 0 {
		t.Fatalf("counters = %+v", w.prot.Counters())
	}
}

func TestNotifyAndGoDelaysWithinWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NotifyAndGo = true
	cfg.NotifyT = 0.5
	cfg.NotifyT0 = 1.0
	w := build(13, 200, 0, cfg)
	s, d := w.farPair(400)
	var firstDataTx float64 = -1
	w.net.Med.TapSend(func(tx medium.Transmission) {
		if firstDataTx < 0 {
			if _, ok := tx.Payload.(*coverPacket); !ok {
				firstDataTx = tx.At
			}
		}
	})
	w.prot.Send(s, d, []byte("x"))
	w.eng.RunUntil(30)
	if firstDataTx < 0 {
		t.Skip("no data transmission")
	}
	// The real packet waits at least t (plus crypto charges).
	if firstDataTx < cfg.NotifyT {
		t.Fatalf("real packet left at %v, before the back-off window start %v",
			firstDataTx, cfg.NotifyT)
	}
}

func TestIntersectionGuardDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntersectionGuard = true
	cfg.HoldRelease = 1.0
	w := build(14, 200, 0, cfg)
	s, d := w.farPair(500)
	delivered := 0
	w.prot.OnDeliver = func(medium.NodeID, medium.NodeID, int, []byte, float64) {
		delivered++
	}
	for i := 0; i < 5; i++ {
		w.prot.Send(s, d, []byte("pkt"))
		w.eng.RunUntil(float64(i+1) * 10)
	}
	w.eng.RunUntil(80)
	if delivered < 4 {
		t.Fatalf("guard mode delivered only %d/5", delivered)
	}
	c := w.prot.Counters()
	if c.Step1Multicasts == 0 {
		t.Fatal("no step-one multicasts")
	}
	if c.Step2Releases == 0 {
		t.Fatal("no step-two releases")
	}
}

func TestIntersectionGuardRecipientSetsSmall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntersectionGuard = true
	cfg.M = 3
	w := build(15, 200, 0, cfg)
	s, d := w.farPair(500)
	step1 := map[int]map[medium.NodeID]bool{}
	w.prot.OnZoneRecipients = func(seq, step int, _ geo.Rect, rs []medium.NodeID, _ float64) {
		if step != 1 {
			return
		}
		if step1[seq] == nil {
			step1[seq] = map[medium.NodeID]bool{}
		}
		for _, r := range rs {
			step1[seq][r] = true
		}
	}
	for i := 0; i < 3; i++ {
		w.prot.Send(s, d, []byte("pkt"))
		w.eng.RunUntil(float64(i+1) * 10)
	}
	if len(step1) == 0 {
		t.Skip("no step-one observations")
	}
	for seq, rs := range step1 {
		if len(rs) > cfg.M {
			t.Fatalf("packet %d step-one reached %d nodes, want <= M=%d",
				seq, len(rs), cfg.M)
		}
	}
}

func TestGuardPayloadRestoredDespiteBitFlips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntersectionGuard = true
	cfg.BitmapBits = 32
	w := build(16, 200, 0, cfg)
	s, d := w.farPair(500)
	payload := []byte("integrity check payload for the bitmap mechanism")
	var got []byte
	w.prot.OnDeliver = func(_, _ medium.NodeID, _ int, data []byte, _ float64) {
		got = data
	}
	w.prot.Send(s, d, payload)
	w.prot.Send(s, d, payload) // trigger release of the first
	w.eng.RunUntil(60)
	if got == nil {
		t.Skip("undelivered in this placement")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted through bitmap: %q", got)
	}
}

func TestConfirmAndRetryOnLoss(t *testing.T) {
	// With 35% loss, some legs drop; confirmations must trigger resends
	// and recover deliveries.
	eng := sim.NewEngine()
	src := rng.New(17)
	mob := mobility.NewStatic(field, 200, src)
	par := medium.DefaultParams()
	par.LossRate = 0.35
	med := medium.MustNew(eng, mob, par, src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, locservice.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Confirm = true
	cfg.ConfirmTimeout = 1.0
	cfg.MaxRetries = 4
	cfg.CompleteTimeout = 20
	prot := MustNew(net, loc, cfg, src)
	delivered := 0
	for i := 0; i < 10; i++ {
		s := medium.NodeID(src.Intn(200))
		d := medium.NodeID(src.Intn(200))
		if s == d {
			continue
		}
		rec, _ := prot.Send(s, d, []byte("x"))
		_ = rec
	}
	eng.RunUntil(60)
	for _, r := range prot.Collector().Records() {
		if r.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered under loss with retries")
	}
	if prot.Counters().Acks == 0 {
		t.Fatal("no confirmations sent")
	}
}

func TestNAKTriggersResend(t *testing.T) {
	// Inject a jamming window that swallows one packet; the next
	// delivered packet's sequence gap must produce a NAK, a resend, and
	// an eventual delivery of the jammed sequence number.
	eng := sim.NewEngine()
	src := rng.New(18)
	mob := mobility.NewStatic(field, 200, src)
	med := medium.MustNew(eng, mob, medium.DefaultParams(), src)
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, locservice.DefaultConfig())
	cfg := DefaultConfig()
	cfg.NAKs = true
	cfg.CompleteTimeout = 40
	prot := MustNew(net, loc, cfg, src)
	var s, d medium.NodeID = 0, 0
	for i := 1; i < 200; i++ {
		if mob.Position(0, 0).Dist(mob.Position(i, 0)) > 500 {
			d = medium.NodeID(i)
			break
		}
	}
	if d == 0 {
		t.Skip("no far node")
	}
	for i := 0; i < 5; i++ {
		at := float64(i)*2 + 0.001
		eng.At(at, func() { prot.Send(s, d, []byte("stream")) })
	}
	// Jam the channel around the second packet (t in [2, 3.5]).
	eng.At(2.0, func() { med.SetLossRate(1.0) })
	eng.At(3.5, func() { med.SetLossRate(0) })
	eng.RunUntil(120)
	c := prot.Counters()
	if c.NAKs == 0 {
		t.Fatalf("no NAK despite a jammed packet: %+v", c)
	}
	if c.Resends == 0 {
		t.Fatal("NAKs sent but no resends triggered")
	}
	// The jammed packet must eventually be delivered via the resend.
	recs := prot.Collector().Records()
	if !recs[1].Delivered {
		t.Fatal("jammed packet never recovered")
	}
}

func TestMeanRFsGrowsWithH(t *testing.T) {
	// Fig. 11: the number of random forwarders grows ~linearly with H.
	meanAt := func(h int) float64 {
		cfg := DefaultConfig()
		cfg.H = h
		w := build(19, 200, 0, cfg)
		sent := 0
		for i := 0; i < w.net.N() && sent < 12; i += 17 {
			for j := 5; j < w.net.N() && sent < 12; j += 23 {
				if i == j {
					continue
				}
				w.prot.Send(medium.NodeID(i), medium.NodeID(j), []byte("x"))
				sent++
			}
		}
		w.eng.RunUntil(120)
		return w.prot.Collector().MeanRFs()
	}
	low := meanAt(2)
	high := meanAt(6)
	if high <= low {
		t.Fatalf("mean RFs: H=2 -> %v, H=6 -> %v; want growth", low, high)
	}
}

func TestLocServiceFailureBlocksSend(t *testing.T) {
	w := build(20, 50, 0, DefaultConfig())
	for i := 0; i < w.loc.NumServers(); i++ {
		w.loc.FailServer(i)
	}
	rec, _ := w.prot.Send(0, 10, []byte("x"))
	w.eng.RunUntil(10)
	if rec.Delivered {
		t.Fatal("send should fail with no location service")
	}
	if w.prot.Collector().Completed() != 1 {
		t.Fatal("record should complete immediately")
	}
}

func TestKindStrings(t *testing.T) {
	if KindData.String() != "data" || KindAck.String() != "ack" || KindNAK.String() != "nak" {
		t.Fatal("kind strings wrong")
	}
}

func TestRectCodec(t *testing.T) {
	r := geo.Rect{Min: geo.Point{X: 1.5, Y: -2.25}, Max: geo.Point{X: 1000, Y: 0.125}}
	got, err := decodeRect(encodeRect(r))
	if err != nil || got != r {
		t.Fatalf("rect codec: %v %v", got, err)
	}
	if _, err := decodeRect([]byte{1, 2}); err == nil {
		t.Fatal("short buffer should error")
	}
}

func TestTTLCodec(t *testing.T) {
	got, err := decodeTTL(encodeTTL(10))
	if err != nil || got != 10 {
		t.Fatalf("ttl codec: %v %v", got, err)
	}
	if _, err := decodeTTL([]byte{1}); err == nil {
		t.Fatal("short TTL should error")
	}
}

func TestFixedAxisPartitionAblation(t *testing.T) {
	// The ablation knob must still deliver, and the alternating default
	// should use no more hops on average (Section 2.3's design argument).
	run := func(fixed bool) (delivery, hops float64) {
		cfg := DefaultConfig()
		cfg.FixedAxisPartition = fixed
		w := build(40, 200, 0, cfg)
		sent := 0
		for i := 0; i < w.net.N() && sent < 15; i += 13 {
			j := (i + 97) % w.net.N()
			if i == j {
				continue
			}
			w.prot.Send(medium.NodeID(i), medium.NodeID(j), []byte("x"))
			sent++
		}
		w.eng.RunUntil(60)
		col := w.prot.Collector()
		return col.DeliveryRate(), col.HopsPerPacket()
	}
	delAlt, hopsAlt := run(false)
	delFixed, hopsFixed := run(true)
	if delAlt < 0.8 || delFixed < 0.7 {
		t.Fatalf("delivery collapsed: alt=%v fixed=%v", delAlt, delFixed)
	}
	if hopsAlt > hopsFixed*1.15 {
		t.Fatalf("alternating (%v hops) should not cost more than fixed-axis (%v)",
			hopsAlt, hopsFixed)
	}
}

func TestLongSessionSurvivesPseudonymRotation(t *testing.T) {
	// Pseudonyms rotate every 10 s (node.PseudonymLifetime); a 60-second
	// session must keep delivering because sources address packets to the
	// registered pseudonym, which destinations keep accepting.
	w := build(41, 200, 2, DefaultConfig())
	s, d := w.farPair(500)
	const packets = 30
	for i := 0; i < packets; i++ {
		at := float64(i) * 2
		w.eng.At(at+0.01, func() { w.prot.Send(s, d, []byte("x")) })
	}
	w.eng.RunUntil(75)
	rate := w.prot.Collector().DeliveryRate()
	if rate < 0.85 {
		t.Fatalf("delivery %v collapsed across pseudonym rotations", rate)
	}
	// Both endpoints rotated at least once during the session.
	if w.net.Node(s).PseudonymUpdates < 2 || w.net.Node(d).PseudonymUpdates < 2 {
		t.Fatal("test vacuous: no rotation happened")
	}
}

func TestZoneRelayTrafficBounded(t *testing.T) {
	// The in-zone relay round must stay bounded: one broadcast per zone
	// member per packet, never an exponential flood.
	w := build(42, 200, 0, DefaultConfig())
	s, d := w.farPair(500)
	before := w.net.Med.Counters().BroadcastsSent
	w.prot.Send(s, d, []byte("x"))
	w.eng.RunUntil(10)
	broadcasts := w.net.Med.Counters().BroadcastsSent - before
	// Upper bound: everyone within a zone-diagonal + range of the zone
	// could relay once; with k~6 expected members allow generous slack.
	if broadcasts > 40 {
		t.Fatalf("%d broadcasts for one packet; relay flood unbounded", broadcasts)
	}
	if broadcasts == 0 {
		t.Fatal("no zone broadcast happened")
	}
}

func TestGuardWithConfirm(t *testing.T) {
	// Intersection guard and confirmations compose: the session still
	// delivers and confirmations flow.
	cfg := DefaultConfig()
	cfg.IntersectionGuard = true
	cfg.Confirm = true
	cfg.ConfirmTimeout = 3
	cfg.HoldRelease = 1
	w := build(43, 200, 0, cfg)
	s, d := w.farPair(500)
	for i := 0; i < 6; i++ {
		at := float64(i) * 2
		w.eng.At(at+0.01, func() { w.prot.Send(s, d, []byte("x")) })
	}
	w.eng.RunUntil(60)
	col := w.prot.Collector()
	if col.DeliveryRate() < 0.6 {
		t.Fatalf("guard+confirm delivery = %v", col.DeliveryRate())
	}
	if w.prot.Counters().Acks == 0 {
		t.Fatal("no confirmations with Confirm enabled")
	}
}

func TestCoverPacketsAreNotForwarded(t *testing.T) {
	// Covering packets carry no valid TTL: receivers drop them, so they
	// must not spawn any routing traffic (Section 2.6).
	cfg := DefaultConfig()
	cfg.NotifyAndGo = true
	w := build(44, 200, 0, cfg)
	s, d := w.farPair(500)
	rec, _ := w.prot.Send(s, d, []byte("x"))
	w.eng.RunUntil(10)
	if !rec.Delivered {
		t.Skip("undeliverable placement")
	}
	c := w.prot.Counters()
	if c.CoversSent == 0 {
		t.Fatal("no covers sent")
	}
	// Each cover is exactly one broadcast: total broadcasts =
	// covers + zone broadcasts (+ relays). No cover multiplies.
	mc := w.net.Med.Counters()
	maxExpected := c.CoversSent + c.ZoneBroadcasts + 40 // zone relays slack
	if mc.BroadcastsSent > maxExpected {
		t.Fatalf("broadcasts %d exceed covers+zone budget %d",
			mc.BroadcastsSent, maxExpected)
	}
}

func TestDerivedHMatchesFormulaAcrossN(t *testing.T) {
	for _, n := range []int{50, 100, 200, 400} {
		w := build(45, n, 0, DefaultConfig())
		want := geo.PartitionsForK(n, 6)
		if w.prot.H() != want {
			t.Fatalf("N=%d: H=%d, want %d", n, w.prot.H(), want)
		}
	}
}

func TestCompletedFlightsAreRetired(t *testing.T) {
	// Session bookkeeping must not grow with session length: settled
	// packets leave the outstanding-flight map.
	w := build(46, 200, 0, DefaultConfig())
	s, d := w.farPair(500)
	for i := 0; i < 20; i++ {
		at := float64(i) * 1
		w.eng.At(at+0.01, func() { w.prot.Send(s, d, []byte("x")) })
	}
	w.eng.RunUntil(60)
	sess := w.prot.session(s, d)
	if len(sess.flights) > 2 {
		t.Fatalf("%d flights still retained after the session settled", len(sess.flights))
	}
	if w.prot.Collector().Completed() != 20 {
		t.Fatalf("completed = %d", w.prot.Collector().Completed())
	}
}

func TestGuardAutoM(t *testing.T) {
	// M == 0: holders are chosen by greedy coverage so every beaconed
	// zone member is within range of some holder (p_c = 1, Section 3.3).
	cfg := DefaultConfig()
	cfg.IntersectionGuard = true
	cfg.M = 0
	cfg.HoldRelease = 1.0
	w := build(50, 200, 0, cfg)
	s, d := w.farPair(500)
	delivered := 0
	w.prot.OnDeliver = func(medium.NodeID, medium.NodeID, int, []byte, float64) {
		delivered++
	}
	for i := 0; i < 5; i++ {
		at := float64(i) * 2
		w.eng.At(at+0.01, func() { w.prot.Send(s, d, []byte("x")) })
	}
	w.eng.RunUntil(40)
	if delivered < 4 {
		t.Fatalf("auto-m guard delivered only %d/5", delivered)
	}
	if w.prot.Counters().Step1Multicasts == 0 {
		t.Fatal("no multicasts with auto-m")
	}
}
