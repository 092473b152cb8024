package live

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
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

// TestDaemonMediumMatchesSim: a daemon's channel is the one the simulator
// builds for the same scenario, hello interval, loss and ARQ included.
func TestDaemonMediumMatchesSim(t *testing.T) {
	for _, mutate := range []func(*experiment.Scenario){
		func(*experiment.Scenario) {},
		func(sc *experiment.Scenario) { sc.HelloInterval = 0.3 },
		func(sc *experiment.Scenario) { sc.LossRate = 0.2 },
		func(sc *experiment.Scenario) { sc.NoARQ = true },
	} {
		sc := experiment.DefaultScenario()
		mutate(&sc)
		w, err := experiment.Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := DaemonConfigFor(sc, 0, 1).Medium, w.Med.Params(); got != want {
			t.Errorf("daemon medium %+v, sim medium %+v", got, want)
		}
	}
}

// TestCoordinatorPushesWorldSnapshot: after each push every daemon holds
// its world's hello snapshot at the push's beacon instant k·HelloInterval,
// its table exactly the medium's NeighborsInto (ids, order, beacon
// positions) and its own position the medium's BeaconPosition. The nodes
// move, so every push differs from the last, and the 0.3 s interval is
// one an accumulated clock would drift off.
func TestCoordinatorPushesWorldSnapshot(t *testing.T) {
	sc := smokeScenario(experiment.ALERT, 30, 3)
	sc.Mobility, sc.Speed, sc.HelloInterval = experiment.RandomWaypoint, 8, 0.3
	fl, err := SpawnFleet(sc, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	c, w := NewCoordinator(fl.World, fl.Handles(), 0.01), fl.World
	for k := 0; k <= 12; k++ {
		if err := c.push(k, nil); err != nil {
			t.Fatal(err)
		}
		if now, want := w.Eng.Now(), float64(k)*sc.HelloInterval; now != want {
			t.Fatalf("push %d ran the world to %v, want %v", k, now, want)
		}
		for _, d := range fl.Daemons {
			var self geo.Point
			var table []medium.Neighbor
			if err := d.call(func() { self, table = d.self, slices.Clone(d.table) }, nil); err != nil {
				t.Fatal(err)
			}
			id := medium.NodeID(d.ID())
			if want := w.Med.NeighborsInto(id, nil); !slices.Equal(table, want) {
				t.Fatalf("push %d, node %d: table %v, world's %v", k, id, table, want)
			}
			if want := w.Med.BeaconPosition(id); self != want {
				t.Fatalf("push %d, node %d: self %v, beacon %v", k, id, self, want)
			}
		}
	}
}

// TestHeldCallParksLoop: a held call returns once its function has run
// and then parks the daemon's loop, which runs nothing else (a frame, a
// timer, a call) until the coordinator releases it.
func TestHeldCallParksLoop(t *testing.T) {
	d := newDaemon(DaemonConfigFor(smokeScenario(experiment.ALERT, 2, 1), 0, 0))
	d.done.Add(1)
	go d.loop()
	defer func() { close(d.stopc); d.done.Wait() }()
	release := make(chan struct{})
	if err := d.call(func() { d.install(Topology{Self: geo.Point{X: 7, Y: 9}}) }, release); err != nil {
		t.Fatal(err)
	}
	ran := make(chan geo.Point, 1)
	d.post(func() { ran <- d.self })
	select {
	case <-ran:
		t.Fatal("the loop ran a command before its release")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if self := <-ran; self != (geo.Point{X: 7, Y: 9}) {
		t.Fatalf("self %v after the install", self)
	}
}

// TestDaemonFootprint: a daemon allocates for the packets it deduplicates,
// not for its sets' bound, so building one at the paper default costs tens
// of KiB. Three sets sized to their 8 192-key bound up front would cost
// about 1.1 MB a daemon, most of a 50-daemon fleet's spawn time and heap.
func TestDaemonFootprint(t *testing.T) {
	cfg := DaemonConfigFor(experiment.DefaultScenario(), 0, 0.2)
	const limit = 128 << 10
	// The least of three builds: TotalAlloc also counts whatever another
	// goroutine allocates meanwhile.
	least := uint64(1 << 62)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := newDaemon(cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(d)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("newDaemon allocated %d B", least)
	if least > limit {
		t.Errorf("want at most %d B", limit)
	}
}

// TestDedupFIFO: a dedup set holds the last capacity distinct keys it was
// given and nothing else, key 0 (flow 0's first packet) included.
func TestDedupFIFO(t *testing.T) {
	const capacity = 3
	s := newDedup(capacity)
	var fifo []uint64 // the reference: distinct keys, oldest first
	for i, k := range []uint64{0, 1, 0, 2, 3, 4, 0, 1, 5, 5, 6, 0, 7, 8, 9} {
		s.add(k)
		if !slices.Contains(fifo, k) {
			if len(fifo) == capacity {
				fifo = fifo[1:]
			}
			fifo = append(fifo, k)
		}
		for key := uint64(0); key <= 9; key++ {
			if got, want := s.contains(key), slices.Contains(fifo, key); got != want {
				t.Fatalf("add #%d (%d): contains(%d) = %v, want %v (FIFO %v)", i, k, key, got, want, fifo)
			}
		}
		if len(s.set) > capacity {
			t.Fatalf("add #%d (%d): set holds %d keys, capacity %d", i, k, len(s.set), capacity)
		}
	}
}

// TestFleetCountsEveryDatagram: on TestFiveNodeExactPath's frozen fleet
// every datagram a daemon writes reaches its addressee's read pump, so
// once the run drains the fleet has written as many datagrams as it read
// or dropped from a full receive queue.
func TestFleetCountsEveryDatagram(t *testing.T) {
	for _, p := range []experiment.ProtocolName{experiment.GPSR, experiment.ALERT} {
		sum, err := RunFleet(smokeScenario(p, 5, 15), 0.01)
		if err != nil {
			t.Fatalf("%s: RunFleet: %v", p, err)
		}
		c := sum.Counters
		if c.TxDatagrams == 0 || c.TxDatagrams != c.RxDatagrams+c.RxDropsFull {
			t.Errorf("%s: %d datagrams written, %d read and %d dropped by full receive queues",
				p, c.TxDatagrams, c.RxDatagrams, c.RxDropsFull)
		}
	}
}

// TestDaemonCloseIdempotent pins the shutdown path: double Close, and
// Close with traffic queued, must not hang or panic.
func TestDaemonCloseIdempotent(t *testing.T) {
	d, err := NewDaemon(DaemonConfigFor(smokeScenario(experiment.GPSR, 1, 1), 0, 0), "127.0.0.1:0")
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
	for _, p := range []experiment.ProtocolName{experiment.AO2P, experiment.ALARM, experiment.ZAP, ""} {
		cfg := DaemonConfigFor(smokeScenario(p, 1, 1), 0, 0)
		if d, err := NewDaemon(cfg, "127.0.0.1:0"); err == nil {
			d.Close()
			t.Errorf("NewDaemon accepted protocol %q", p)
		}
	}
}

// TestSpawnFleetRefusesWhatLiveLacks: a fleet runs neither a comparator
// nor a non-CBR workload nor ALERT's notify-and-go, intersection guard,
// confirmations or NAKs, so SpawnFleet refuses each before it builds
// anything, rather than running the scenario without it. GPSR ignores
// ALERT's options in the simulator too, so a GPSR fleet takes them.
func TestSpawnFleetRefusesWhatLiveLacks(t *testing.T) {
	for name, mutate := range map[string]func(*experiment.Scenario){
		"zap":                func(sc *experiment.Scenario) { sc.Protocol = experiment.ZAP },
		"poisson":            func(sc *experiment.Scenario) { sc.Workload = experiment.Poisson },
		"notify-and-go":      func(sc *experiment.Scenario) { sc.Alert.NotifyAndGo = true },
		"intersection-guard": func(sc *experiment.Scenario) { sc.Alert.IntersectionGuard = true },
		"confirm":            func(sc *experiment.Scenario) { sc.Alert.Confirm = true },
		"naks":               func(sc *experiment.Scenario) { sc.Alert.NAKs = true },
	} {
		sc := smokeScenario(experiment.ALERT, 5, 1)
		mutate(&sc)
		if fl, err := SpawnFleet(sc, 0.01); err == nil {
			fl.Close()
			t.Errorf("SpawnFleet ran a fleet with %s", name)
		}
	}
	sc := smokeScenario(experiment.GPSR, 5, 1)
	sc.Alert.NotifyAndGo, sc.Alert.IntersectionGuard, sc.Alert.Confirm, sc.Alert.NAKs = true, true, true, true
	if err := CanRun(sc); err != nil {
		t.Errorf("GPSR with ALERT's options refused: %v", err)
	}
}

// TestCompareHopsOverDelivered: both sides of the hops check count hops
// over delivered packets. On this fast GPSR field many packets die far
// from their destination, so hops over packets sent (Result's
// HopsPerPacket) reads twice the delivered packets' mean, and a fleet
// whose deliveries took the sim's own routes failed the band against it.
func TestCompareHopsOverDelivered(t *testing.T) {
	sc := experiment.DefaultScenario()
	sc.Protocol, sc.Seed, sc.N, sc.Speed = experiment.GPSR, 7, 60, 8
	sc.Field = geo.Rect{Max: geo.Point{X: 700, Y: 700}}
	sc.Pairs, sc.Duration, sc.DrainTime, sc.LocUpdates = 6, 20, 4, false
	res, w, err := experiment.RunWorld(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	for _, r := range w.Proto.Collector().Records() {
		if r.Delivered {
			hops += r.Hops
		}
	}
	perDelivered := float64(hops) / float64(res.Delivered)
	if res.HopsPerPacket < 1.5*perDelivered {
		t.Fatalf("hops %.2f per packet sent, %.2f per delivered: too close to tell the definitions apart",
			res.HopsPerPacket, perDelivered)
	}
	lv := Summary{Sent: res.Sent, Delivered: res.Delivered, DeliveryRate: res.DeliveryRate,
		MeanLatency: res.MeanLatency, HopsPerPkt: perDelivered}
	cmp := Compare(res, w, lv)
	for _, c := range cmp.Checks {
		if c.Name == "hops-per-delivered" && c.Sim != perDelivered {
			t.Errorf("sim side of the hops check %.4f, want the delivered packets' %.4f", c.Sim, perDelivered)
		}
	}
	if !cmp.OK {
		t.Errorf("the sim's own deliveries fail the bands:\n%s", cmp)
	}
}

// TestZoneDeliverAtAddresseeCountsBroadcast drives one daemon without
// sockets: a frame whose last random forwarder is its own addressee D
// zone-delivers there, and the delivery must count the zone broadcast as
// a hop, as the simulator's record does.
func TestZoneDeliverAtAddresseeCountsBroadcast(t *testing.T) {
	sc := smokeScenario(experiment.ALERT, 200, 15) // k = 6 of 200 nodes: H = 5
	field := sc.Field
	cfg := DaemonConfigFor(sc, 4, 0)
	if cfg.Hmax != 5 {
		t.Fatalf("Hmax = %d, want 5", cfg.Hmax)
	}
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

// TestZoneRelayDecidesOnce drives one unstarted daemon's handleZone: on a
// lossless channel a zone member relays a packet's zone broadcast only
// when its table holds a zone member beyond the sender's stamped range,
// decides once per packet, and a node outside Z_D never relays; on a
// lossy channel it relays every packet it first hears.
func TestZoneRelayDecidesOnce(t *testing.T) {
	d, err := NewDaemon(DaemonConfigFor(smokeScenario(experiment.ALERT, 200, 15), 4, 0), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.self = geo.Point{X: 250, Y: 250}
	d.table = []medium.Neighbor{{ID: 1, Pos: geo.Point{X: 450, Y: 250}}, {ID: 2, Pos: geo.Point{X: 100, Y: 250}}}
	zone := geo.Rect{Max: geo.Point{X: 500, Y: 500}}
	heard := func(seq uint32, from int32, at geo.Point, zone geo.Rect) {
		d.handleZone(&Frame{
			Kind: KindData, Flow: 1, Seq: seq, ZoneStep: 1, Flags: FlagEnvelope | FlagNoAck,
			From: from, SrcPos: at, Env: &Envelope{Kind: core.KindData, LZD: zone},
		})
	}
	heard(0, 1, geo.Point{X: 450, Y: 250}, zone) // node 2 lies 350 m from the sender: relay
	heard(0, 2, geo.Point{X: 100, Y: 250}, zone) // the same packet again: decided
	if d.counts.ZoneRelays != 1 {
		t.Fatalf("%d relays after packet 0, want 1", d.counts.ZoneRelays)
	}
	heard(1, 7, geo.Point{X: 250, Y: 300}, zone) // the sender's range covers both members
	heard(2, 1, geo.Point{X: 450, Y: 250}, geo.Rect{Min: geo.Point{X: 300}, Max: geo.Point{X: 500, Y: 500}})
	if d.counts.ZoneRelays != 1 {
		t.Fatalf("%d relays after packets 1 and 2, want 1", d.counts.ZoneRelays)
	}
	d.cfg.Medium.LossRate = 0.2
	heard(3, 7, geo.Point{X: 250, Y: 300}, zone) // covered, but a lossy channel may have dropped it
	if d.counts.ZoneRelays != 2 {
		t.Fatalf("%d relays after packet 3 on a lossy channel, want 2", d.counts.ZoneRelays)
	}
}

// RunFleet is the one-call harness: spawn the scenario's fleet, run the
// coordinator over it, tear the fleet down.
func RunFleet(sc experiment.Scenario, timescale float64) (Summary, error) {
	fl, err := SpawnFleet(sc, timescale)
	if err != nil {
		return Summary{}, err
	}
	defer fl.Close()
	return NewCoordinator(fl.World, fl.Handles(), timescale).Run()
}
