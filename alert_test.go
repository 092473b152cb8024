package alert

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"alertmanet/internal/experiment"
)

// mustRun and mustNet keep the facade tests terse now that Run and
// NewNetwork return errors.
func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestDefaultConfigIsDefaultScenario pins the facade's defaults to the
// harness's: DefaultConfig maps onto exactly experiment.DefaultScenario.
func TestDefaultConfigIsDefaultScenario(t *testing.T) {
	if got, want := DefaultConfig().scenario(), experiment.DefaultScenario(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DefaultConfig().scenario() =\n%+v\nwant experiment.DefaultScenario()\n%+v", got, want)
	}
}

func TestRunDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 30
	res := mustRun(t, cfg)
	if res.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
	if res.DeliveryRate < 0.9 {
		t.Fatalf("delivery = %v", res.DeliveryRate)
	}
	if res.MeanLatencySeconds <= 0 {
		t.Fatal("no latency measured")
	}
	if res.MeanRandomForwarders <= 0 {
		t.Fatal("ALERT used no random forwarders")
	}
}

func TestRunBaselines(t *testing.T) {
	for _, p := range []Protocol{GPSR, ALARM, AO2P} {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.Duration = 20
		res := mustRun(t, cfg)
		if res.DeliveryRate < 0.9 {
			t.Fatalf("%s delivery = %v", p, res.DeliveryRate)
		}
		if res.MeanRandomForwarders != 0 {
			t.Fatalf("%s reported random forwarders", p)
		}
	}
}

func TestNetworkInteractive(t *testing.T) {
	cfg := DefaultConfig()
	net := mustNet(t, cfg)
	if net.Nodes() != 200 {
		t.Fatalf("nodes = %d", net.Nodes())
	}
	if net.PartitionDepth() != 5 {
		t.Fatalf("H = %d", net.PartitionDepth())
	}
	var got Delivery
	net.OnDeliver(func(d Delivery) { got = d })
	// Find a far pair for a meaningful route.
	src, dst := 0, 0
	sx, sy := net.Position(0)
	for i := 1; i < net.Nodes(); i++ {
		x, y := net.Position(i)
		if (x-sx)*(x-sx)+(y-sy)*(y-sy) > 500*500 {
			dst = i
			break
		}
	}
	if dst == 0 {
		t.Skip("no far node")
	}
	if err := net.Send(src, dst, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	net.RunFor(10)
	if got.Data == nil {
		t.Skip("undeliverable placement")
	}
	if !bytes.Equal(got.Data, []byte("ping")) || got.Src != src || got.Dst != dst {
		t.Fatalf("delivery = %+v", got)
	}
	if got.At <= 0 || got.At > net.w.Eng.Now() {
		t.Fatalf("delivery time %v outside run window", got.At)
	}
	m := net.Metrics()
	if m.PacketsSent != 1 || m.DeliveryRate != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestNetworkSendValidation(t *testing.T) {
	net := mustNet(t, DefaultConfig())
	if err := net.Send(-1, 5, nil); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := net.Send(0, 9999, nil); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if err := net.Send(3, 3, nil); err == nil {
		t.Fatal("self-send accepted")
	}
}

func TestNetworkDestZone(t *testing.T) {
	net := mustNet(t, DefaultConfig())
	minX, minY, maxX, maxY := net.DestZone(7)
	if maxX <= minX || maxY <= minY {
		t.Fatal("degenerate zone")
	}
	x, y := net.Position(7)
	if x < minX || x > maxX || y < minY || y > maxY {
		t.Fatal("node outside its own destination zone")
	}
	// Zone area is field/2^H.
	area := (maxX - minX) * (maxY - minY)
	want := 1000.0 * 1000.0 / 32
	if area != want {
		t.Fatalf("zone area %v, want %v", area, want)
	}
}

func TestAnalysisFacade(t *testing.T) {
	if RemainingNodes(20, 200, 5, 1000, 2) >= RemainingNodes(0, 200, 5, 1000, 2) {
		t.Fatal("remaining nodes should decay")
	}
}

func TestAttackFacades(t *testing.T) {
	r := RunIntersectionAttack(1, 10, false)
	if r.Waves == 0 {
		t.Fatal("attack observed nothing")
	}
	set, eta := SourceAnonymitySet(1, true)
	if set <= 1 || eta == 0 {
		t.Fatalf("anonymity set %d (eta %d)", set, eta)
	}
	if s := TimingAttackScore(1, GPSR, 10); s <= 0 {
		t.Fatalf("timing score = %v", s)
	}
	if p := InterceptionProbability(1, GPSR, 10, 3); p <= 0 {
		t.Fatalf("interception = %v", p)
	}
}

func TestGroupMobilityConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mobility = GroupMobility
	cfg.Groups = 5
	cfg.GroupRange = 200
	cfg.Duration = 15
	res := mustRun(t, cfg)
	if res.PacketsSent == 0 {
		t.Fatal("group mobility run sent nothing")
	}
}

func TestRouteMap(t *testing.T) {
	net := mustNet(t, DefaultConfig())
	if m, err := net.RouteMap(60, 30); err != nil || m != "" {
		t.Fatalf("route map before any delivery: %q, %v", m, err)
	}
	// Deliver something.
	src, dst := 0, 0
	sx, sy := net.Position(0)
	for i := 1; i < net.Nodes(); i++ {
		x, y := net.Position(i)
		if (x-sx)*(x-sx)+(y-sy)*(y-sy) > 500*500 {
			dst = i
			break
		}
	}
	if dst == 0 {
		t.Skip("no far node")
	}
	_ = net.Send(src, dst, []byte("x"))
	net.RunFor(10)
	m, err := net.RouteMap(60, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m == "" {
		t.Skip("undeliverable placement")
	}
	for _, want := range []string{"S", "D", "#"} {
		if !strings.Contains(m, want) {
			t.Fatalf("route map missing %q:\n%s", want, m)
		}
	}
}

func TestWorkloadFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Traffic = PoissonLoad
	cfg.Duration = 20
	r := mustRun(t, cfg)
	if r.PacketsSent == 0 {
		t.Fatal("poisson workload sent nothing")
	}
}

func TestZAPFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = ZAP
	cfg.Duration = 20
	r := mustRun(t, cfg)
	if r.DeliveryRate < 0.85 {
		t.Fatalf("ZAP delivery = %v", r.DeliveryRate)
	}
}
