package metrics

import (
	"testing"

	"alertmanet/internal/medium"
)

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if c.Sent() != 0 || c.Completed() != 0 || c.DeliveryRate() != 0 ||
		c.MeanLatency() != 0 || c.HopsPerPacket() != 0 || c.MeanRFs() != 0 ||
		c.Participants() != 0 {
		t.Fatal("empty collector should report zeros")
	}
}

func TestBasicFlow(t *testing.T) {
	c := NewCollector()
	r := c.Start(1, 2, 10.0)
	if r.Seq != 0 || r.Src != 1 || r.Dst != 2 || r.SentAt != 10 {
		t.Fatalf("record = %+v", r)
	}
	r.Hops = 5
	r.RFs = 2
	r.Path = []medium.NodeID{1, 3, 4, 2}
	c.Complete(r, 10.5, true)
	if c.DeliveryRate() != 1 {
		t.Fatal("delivery rate wrong")
	}
	if r.Latency() != 0.5 {
		t.Fatalf("latency = %v", r.Latency())
	}
	if c.MeanLatency() != 0.5 {
		t.Fatal("mean latency wrong")
	}
	if c.HopsPerPacket() != 5 {
		t.Fatal("hops per packet wrong")
	}
	if c.MeanRFs() != 2 {
		t.Fatal("mean RFs wrong")
	}
	// Endpoints are excluded from the participant set: only relays 3, 4.
	if c.Participants() != 2 {
		t.Fatalf("participants = %d, want 2 (endpoints excluded)", c.Participants())
	}
}

func TestUndeliveredPacket(t *testing.T) {
	c := NewCollector()
	r := c.Start(0, 1, 0)
	r.Hops = 3
	c.Complete(r, 0, false)
	if c.DeliveryRate() != 0 {
		t.Fatal("delivery rate should be 0")
	}
	if r.Latency() != 0 {
		t.Fatal("undelivered latency should be 0")
	}
	// Hops still count toward transmission cost.
	if c.HopsPerPacket() != 3 {
		t.Fatal("hops should count even when dropped")
	}
}

func TestMixedDelivery(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 4; i++ {
		r := c.Start(0, 1, float64(i))
		r.Hops = 2
		c.Complete(r, float64(i)+0.25, i%2 == 0)
	}
	if c.DeliveryRate() != 0.5 {
		t.Fatalf("rate = %v", c.DeliveryRate())
	}
	if c.Delivered() != 2 {
		t.Fatalf("delivered = %d, want 2", c.Delivered())
	}
	if c.MeanLatency() != 0.25 {
		t.Fatalf("latency = %v", c.MeanLatency())
	}
}

func TestDeliveredCountEmpty(t *testing.T) {
	c := NewCollector()
	if c.Delivered() != 0 {
		t.Fatal("empty collector reports deliveries")
	}
}

func TestExtraHops(t *testing.T) {
	c := NewCollector()
	r := c.Start(0, 1, 0)
	r.Hops = 4
	c.Complete(r, 1, true)
	c.ExtraHops = 6 // e.g. ALARM dissemination
	if c.HopsPerPacket() != 10 {
		t.Fatalf("hops per packet = %v, want (4+6)/1", c.HopsPerPacket())
	}
}

func TestCumulativeParticipants(t *testing.T) {
	c := NewCollector()
	r1 := c.Start(0, 1, 0)
	r1.Path = []medium.NodeID{0, 5, 1}
	c.Complete(r1, 1, true)
	r2 := c.Start(0, 1, 2)
	r2.Path = []medium.NodeID{0, 7, 8, 1} // two new nodes
	c.Complete(r2, 3, true)
	r3 := c.Start(0, 1, 4)
	r3.Path = []medium.NodeID{0, 5, 1} // nothing new
	c.Complete(r3, 5, true)
	got := c.CumulativeParticipants()
	want := []int{1, 3, 3} // endpoints (0 and 1) excluded
	if len(got) != len(want) {
		t.Fatalf("cumulative = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", got, want)
		}
	}
	// Returned slice is a copy.
	got[0] = 99
	if c.CumulativeParticipants()[0] != 1 {
		t.Fatal("CumulativeParticipants leaked internal slice")
	}
}

func TestAddParticipantDedup(t *testing.T) {
	c := NewCollector()
	c.AddParticipant(3)
	c.AddParticipant(3)
	c.AddParticipant(4)
	if c.Participants() != 2 {
		t.Fatalf("participants = %d", c.Participants())
	}
}

func TestRecordsAccessor(t *testing.T) {
	c := NewCollector()
	c.Start(0, 1, 0)
	c.Start(2, 3, 1)
	rs := c.Records()
	if len(rs) != 2 || rs[1].Src != 2 {
		t.Fatal("Records wrong")
	}
	if c.Sent() != 2 {
		t.Fatal("Sent wrong")
	}
}

// TestRecordSlabReuse pins the slab contract: records come back zeroed but
// keep their Path backing array across Reset, a slab-backed collector
// behaves exactly like a heap-backed one, and steady-state reuse after the
// first run allocates nothing.
func TestRecordSlabReuse(t *testing.T) {
	var slab RecordSlab
	c := NewCollector()
	c.UseSlab(&slab)

	r := c.Start(1, 2, 0.5)
	if r.Done() {
		t.Fatal("fresh record already done")
	}
	r.Path = append(r.Path, 1, 7, 2)
	r.Hops = 3
	c.AddPath(r.Path)
	c.Complete(r, 1.5, true)
	if !r.Done() || c.Unfinished() != 0 {
		t.Fatalf("done=%v unfinished=%d", r.Done(), c.Unfinished())
	}
	if c.Participants() != 3 { // AddPath counted endpoints; Complete only node 7
		t.Fatalf("participants = %d", c.Participants())
	}
	firstPath := &r.Path[0]

	// A second run on the reset slab gets the same record storage back,
	// zeroed, with the Path backing array retained.
	slab.Reset()
	c2 := NewCollector()
	c2.UseSlab(&slab)
	r2 := c2.Start(8, 9, 2.0)
	if r2 != r {
		t.Fatal("reset slab did not reuse the first record")
	}
	if r2.Done() || r2.Delivered || r2.Hops != 0 || len(r2.Path) != 0 {
		t.Fatalf("reused record not zeroed: %+v", r2)
	}
	if r2.Src != 8 || r2.Dst != 9 || r2.SentAt != 2.0 || r2.Seq != 0 {
		t.Fatalf("reused record fields wrong: %+v", r2)
	}
	r2.Path = append(r2.Path, 8)
	if &r2.Path[0] != firstPath {
		t.Fatal("reused record did not keep its Path backing array")
	}

	// Steady state: a full warmed block reused across resets allocates 0.
	slab.Reset()
	for i := 0; i < slabBlockSize+1; i++ { // warm two blocks
		slab.get()
	}
	allocs := testing.AllocsPerRun(10, func() {
		slab.Reset()
		for i := 0; i < slabBlockSize+1; i++ {
			slab.get()
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed slab allocates %.1f per run, want 0", allocs)
	}
}

// AddParticipant marks a node as having taken part in routing.
func (c *Collector) AddParticipant(id medium.NodeID) {
	c.participants[id] = struct{}{}
}

// AddPath marks every node on a path as a participant.
func (c *Collector) AddPath(path []medium.NodeID) {
	for _, id := range path {
		c.participants[id] = struct{}{}
	}
}
