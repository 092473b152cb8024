package experiment

import (
	"testing"

	"alertmanet/internal/alarm"
	"alertmanet/internal/ao2p"
	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/locservice"
	"alertmanet/internal/medium"
	"alertmanet/internal/node"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
	"alertmanet/internal/zap"
)

// allocField is shared by every alloc-test world regardless of how much of
// the line is populated, so two worlds differ only in node placement —
// ALERT partitions the field itself, and its leg structure must match
// between the compared runs.
var allocField = geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 4200, Y: 1000}}

// lineModel pins n nodes 200 m apart on a horizontal line. With a 250 m
// radio range only adjacent nodes hear each other, so a send from node s to
// node 0 crosses exactly s hops — path length is the source index.
type lineModel struct{ n int }

func (l *lineModel) Position(id int, _ float64) geo.Point {
	return geo.Point{X: float64(id) * 200, Y: 500}
}
func (l *lineModel) N() int            { return l.n }
func (l *lineModel) Field() geo.Rect   { return allocField }
func (l *lineModel) MaxSpeed() float64 { return 0 }

// buildLineProto assembles one protocol over a 20-node line. Configs are
// the defaults except: hop budgets raised to cover the 19-hop far send,
// ALARM's dissemination ticker disabled so the engine drains between sends,
// and ALERT pinned to H=1 so near and far sources produce the identical
// one-leg partition structure and differ only in leg length.
func buildLineProto(t *testing.T, name ProtocolName) (*sim.Engine, Proto) {
	t.Helper()
	eng := sim.NewEngine()
	src := rng.New(11)
	med := medium.MustNew(eng, &lineModel{n: 20}, medium.DefaultParams(), src)
	// No RotatePseudonyms: the rotation ticker is
	// unbounded, and each send must drain the engine completely.
	net := node.NewNetwork(eng, med, crypt.NewFastSuite(src), crypt.ZeroCostModel(), src)
	loc := locservice.New(net, locservice.Config{UpdatesEnabled: false})
	switch name {
	case ALERT:
		cfg := core.DefaultConfig()
		cfg.H = 1
		cfg.LegHopBudget = 40
		p, err := core.New(net, loc, cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		return eng, p
	case GPSR:
		cfg := gpsr.DefaultAppConfig()
		cfg.HopBudget = 40
		return eng, gpsr.NewApp(net, loc, cfg)
	case ALARM:
		cfg := alarm.DefaultConfig()
		cfg.HopBudget = 40
		cfg.DisseminationPeriod = 0
		return eng, alarm.New(net, loc, cfg)
	case AO2P:
		cfg := ao2p.DefaultConfig()
		cfg.HopBudget = 40
		return eng, ao2p.New(net, loc, cfg, src)
	case ZAP:
		cfg := zap.DefaultConfig()
		cfg.HopBudget = 40
		// On the sparse line the default 180 m zone holds only the
		// destination, which is then also the flood's anchor — and a node
		// never hears its own broadcast. A 700 m zone puts the anchor on
		// the destination's neighbor, as in a normally dense field.
		cfg.ZoneSide = 700
		return eng, zap.New(net, loc, cfg, src)
	}
	t.Fatalf("unknown protocol %q", name)
	return nil, nil
}

// sendAllocs measures steady-state allocations per application send from
// src to node 0, and returns them with the hop count of the last send.
func sendAllocs(t *testing.T, name ProtocolName, src medium.NodeID) (float64, int) {
	t.Helper()
	eng, p := buildLineProto(t, name)
	data := make([]byte, 16)
	hops := 0
	send := func() {
		rec, err := p.Send(src, 0, data)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !rec.Done() || !rec.Delivered {
			t.Fatalf("%s send from %d undelivered: %+v", name, src, rec)
		}
		hops = rec.Hops
	}
	// Reach steady state: pools, the collector's maps and slices, and the
	// per-pair session state all stop growing within a few sends.
	for i := 0; i < 8; i++ {
		send()
	}
	return testing.AllocsPerRun(20, send), hops
}

// TestSendAllocsPathLengthIndependent pins the tentpole's per-protocol
// contract: with telemetry disabled, every per-hop structure is pooled, so
// a send costs the same number of allocations whether it crosses 12 hops
// or 19. Each protocol still allocates a constant amount of per-packet control
// state (record, envelope, completion closures) — what this test forbids is
// any allocation that scales with path length, i.e. per forwarded packet.
func TestSendAllocsPathLengthIndependent(t *testing.T) {
	// Both sources sit outside ALERT's H=1 destination zone (the left half
	// of the field, x < 2100), so its partition-leg structure — and thus
	// its constant per-leg control-plane allocation — is identical; only
	// the hop count differs.
	for _, name := range []ProtocolName{GPSR, ALERT, ALARM, AO2P, ZAP} {
		near, nearHops := sendAllocs(t, name, 12)
		far, farHops := sendAllocs(t, name, 19)
		if farHops <= nearHops {
			t.Errorf("%s: far send crossed %d hops, near %d — topology no longer exercises the contract",
				name, farHops, nearHops)
		}
		if near != far {
			t.Errorf("%s: %.1f allocs over %d hops vs %.1f allocs over %d hops — forwarding allocates per hop",
				name, near, nearHops, far, farHops)
		}
	}
}
