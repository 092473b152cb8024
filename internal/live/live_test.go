package live

import (
	"testing"
	"time"

	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/rng"
	"alertmanet/internal/stats"
)

// smokeScenario is a small, fast, fully connected field for data-plane
// tests: static nodes, no loss, CBR.
func smokeScenario(protocol experiment.ProtocolName, n int, seed int64) experiment.Scenario {
	sc := experiment.DefaultScenario()
	sc.Protocol = protocol
	sc.Seed = seed
	sc.N = n
	sc.Field = geo.Rect{Max: geo.Point{X: 600, Y: 600}}
	sc.Mobility = experiment.Static
	sc.Duration = 10
	sc.DrainTime = 2
	sc.Pairs = 2
	sc.Interval = 2
	sc.LocUpdates = false
	return sc
}

// TestFleetSmokeGPSR drives a small static GPSR fleet over loopback UDP
// and expects real deliveries with sane accounting.
func TestFleetSmokeGPSR(t *testing.T) {
	sum, err := RunFleet(smokeScenario(experiment.GPSR, 25, 7), 0.01)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if sum.Sent == 0 {
		t.Fatal("no packets sent")
	}
	if sum.Delivered == 0 {
		t.Fatalf("no deliveries (sent %d, counters %+v)", sum.Sent, sum.Counters)
	}
	for _, dv := range sum.Deliveries {
		if dv.VTime <= 0 {
			t.Errorf("delivery flow %d seq %d has non-positive vtime %g", dv.Flow, dv.Seq, dv.VTime)
		}
		if len(dv.Path) < 1 || dv.Path[len(dv.Path)-1] != dv.Dst {
			t.Errorf("delivery flow %d seq %d path %v does not end at dst %d", dv.Flow, dv.Seq, dv.Path, dv.Dst)
		}
	}
	t.Logf("gpsr smoke: sent %d delivered %d rate %.2f meanlat %.4fs hops %.1f",
		sum.Sent, sum.Delivered, sum.DeliveryRate, sum.MeanLatency, sum.HopsPerPkt)
}

// TestFleetSmokeALERT drives a small static ALERT fleet: envelopes on the
// wire, zone broadcasts, real session crypto end to end.
func TestFleetSmokeALERT(t *testing.T) {
	sum, err := RunFleet(smokeScenario(experiment.ALERT, 25, 7), 0.01)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if sum.Sent == 0 {
		t.Fatal("no packets sent")
	}
	if sum.Delivered == 0 {
		t.Fatalf("no deliveries (sent %d, counters %+v)", sum.Sent, sum.Counters)
	}
	if sum.Counters.ZoneBroadcasts == 0 {
		t.Error("ALERT run produced no zone broadcasts")
	}
	t.Logf("alert smoke: sent %d delivered %d rate %.2f meanlat %.4fs zb %d relays %d",
		sum.Sent, sum.Delivered, sum.DeliveryRate, sum.MeanLatency,
		sum.Counters.ZoneBroadcasts, sum.Counters.ZoneRelays)
}

// TestSummaryLatencyMatchesSimDefinition pins live's latency statistics to
// the simulator's: Summary's mean and percentiles must be exactly what
// stats.Sample, which experiment.Result uses, gives over the Summary's own
// deliveries. A nearest-rank percentile reads differently on the same data.
func TestSummaryLatencyMatchesSimDefinition(t *testing.T) {
	sum, err := RunFleet(smokeScenario(experiment.ALERT, 25, 7), 0.01)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if sum.Delivered < 2 {
		t.Fatalf("%d deliveries, want at least 2 to tell percentile definitions apart", sum.Delivered)
	}
	var lat stats.Sample
	for _, dv := range sum.Deliveries {
		lat.Add(dv.VTime)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", sum.MeanLatency, lat.Mean()},
		{"p50", sum.LatencyP50, lat.Quantile(0.50)},
		{"p95", sum.LatencyP95, lat.Quantile(0.95)},
	} {
		if c.got != c.want {
			t.Errorf("latency %s = %.7g s, stats.Sample gives %.7g s", c.name, c.got, c.want)
		}
	}
}

// TestDaemonCloseIdempotent pins the shutdown path: double Close, and
// Close with traffic queued, must not hang or panic.
func TestDaemonCloseIdempotent(t *testing.T) {
	field := geo.Rect{Max: geo.Point{X: 100, Y: 100}}
	d, err := NewDaemon(DefaultDaemonConfig(0, field, 1), "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	d.Start()
	done := make(chan struct{})
	go func() {
		d.Close()
		d.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
}

// TestNewDaemonRejectsComparators pins the live protocol set: only ALERT
// and GPSR run live, so NewDaemon refuses anything else before it binds a
// socket rather than running it as a plain GPSR flow.
func TestNewDaemonRejectsComparators(t *testing.T) {
	field := geo.Rect{Max: geo.Point{X: 100, Y: 100}}
	for _, p := range []experiment.ProtocolName{experiment.AO2P, experiment.ALARM, experiment.ZAP, ""} {
		cfg := DefaultDaemonConfig(0, field, 1)
		cfg.Protocol = string(p)
		if d, err := NewDaemon(cfg, "127.0.0.1:0"); err == nil {
			d.Close()
			t.Errorf("NewDaemon accepted protocol %q", p)
		}
	}
}

// TestZoneDeliverAtAddresseeCountsBroadcast drives one daemon without
// sockets: a frame whose last random forwarder is its own addressee D
// zone-delivers there, and the delivery must count the zone broadcast as
// a hop, as the simulator's record does.
func TestZoneDeliverAtAddresseeCountsBroadcast(t *testing.T) {
	field := geo.Rect{Max: geo.Point{X: 600, Y: 600}}
	cfg := DefaultDaemonConfig(4, field, 15)
	cfg.Protocol = string(experiment.ALERT)
	d := newDaemon(cfg)
	d.self = geo.Point{X: 500, Y: 500}

	zone := geo.DestZone(field, d.self, cfg.Hmax, geo.Vertical)
	src := rng.New(1)
	key, encKey, encLZS, err := core.NewSession(d.suite, d.pub, zone, src)
	if err != nil {
		t.Fatal(err)
	}
	f := &Frame{
		Kind: KindData, Flow: 1, Flags: FlagEnvelope, Hops: 4,
		Path: []int32{2, 1, 0, 3, 4},
		Env: &Envelope{
			Kind: core.KindData, PD: d.pseud, LZD: zone, Hmax: cfg.Hmax,
			Zone: field, DPubOwner: None,
			EncLZS: encLZS, EncSymKey: encKey,
			Payload: crypt.SymSeal(key, []byte("payload"), src),
		},
	}
	if d.routeEntry(f) {
		t.Fatal("holder inside Z_D did not zone-deliver")
	}
	if len(d.delivs) != 1 {
		t.Fatalf("%d deliveries, want 1", len(d.delivs))
	}
	if got := d.delivs[0].Hops; got != 5 {
		t.Errorf("delivery hops %d, want 5 (4 leg hops + the zone broadcast)", got)
	}
	if d.counts.ZoneBroadcasts != 1 {
		t.Errorf("%d zone broadcasts, want 1", d.counts.ZoneBroadcasts)
	}
}
