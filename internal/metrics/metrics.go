// Package metrics collects the evaluation quantities of Section 5.2:
// actual participating nodes, random-forwarder counts, hops per packet,
// latency per packet, and delivery rate. Protocols record per-packet events
// into a Collector; the experiment harness aggregates over runs.
package metrics

import (
	"alertmanet/internal/medium"
	"alertmanet/internal/telemetry"
)

// PacketRecord traces one application packet end to end.
type PacketRecord struct {
	// Seq is the collector-assigned sequence number.
	Seq int
	// Src and Dst identify the S-D pair.
	Src, Dst medium.NodeID
	// SentAt is when the source issued the packet; DeliveredAt when the
	// destination received it (0 and Delivered=false if it never did).
	SentAt, DeliveredAt float64
	// Hops counts transmissions the packet traversed (including the
	// final broadcast leg, counted as one hop per the paper's
	// "accumulated routing hop counts").
	Hops int
	// RFs counts ALERT random forwarders on the path (0 for baselines).
	RFs int
	// Delivered reports whether the destination got the packet.
	Delivered bool
	// Path lists every node that held or received the packet.
	Path []medium.NodeID

	// done guards against a record completing twice (a protocol's
	// complete-timeout racing its terminal routing outcome).
	done bool
}

// Done reports whether the record has been completed.
func (r *PacketRecord) Done() bool { return r.done }

// Latency returns the packet's end-to-end delay, or 0 if undelivered.
func (r *PacketRecord) Latency() float64 {
	if !r.Delivered {
		return 0
	}
	return r.DeliveredAt - r.SentAt
}

// Collector accumulates packet records and derived aggregates for one run.
type Collector struct {
	records []*PacketRecord
	// participants is the cumulative set of nodes that took part in any
	// routing so far ("actual participating nodes", Fig. 10).
	participants map[medium.NodeID]struct{}
	// cumulative[i] is the participant-set size after packet i completed
	// (delivered or dropped).
	cumulative []int
	// ExtraHops accrues protocol overhead hops not tied to one packet,
	// e.g. ALARM's periodic identity dissemination (Fig. 15).
	ExtraHops uint64
	completed int
	// tap, when non-nil, observes packet lifecycle endpoints; now supplies
	// the simulated clock for completion events (Complete's deliveredAt is
	// zero for undelivered packets).
	tap *telemetry.Tap
	now func() float64
	// slab, when non-nil, supplies the records Start opens instead of the
	// heap — reused across runs by the campaign's per-worker arenas.
	slab *RecordSlab
}

// slabBlockSize records per block: large enough that a typical run touches
// one or two blocks, small enough that capacity growth stays incremental.
const slabBlockSize = 512

// RecordSlab is a block allocator for PacketRecords, reusable across runs.
// Records handed out by get stay valid until Reset; the owner must not
// Reset while any previous run's records are still referenced. Each reused
// record keeps its Path backing array, so steady-state reuse allocates
// nothing.
type RecordSlab struct {
	blocks      [][]PacketRecord
	block, next int
}

// get returns a zeroed record, reusing storage from earlier runs.
func (s *RecordSlab) get() *PacketRecord {
	if s.block == len(s.blocks) {
		s.blocks = append(s.blocks, make([]PacketRecord, slabBlockSize))
	}
	r := &s.blocks[s.block][s.next]
	s.next++
	if s.next == slabBlockSize {
		s.block++
		s.next = 0
	}
	path := r.Path[:0]
	*r = PacketRecord{Path: path}
	return r
}

// Reset rewinds the slab so the next get reuses the first record again.
// Every record previously handed out becomes invalid.
func (s *RecordSlab) Reset() { s.block, s.next = 0, 0 }

// UseSlab draws all subsequently started records from s instead of the
// heap. The collector does not own the slab; the caller coordinates Reset
// with the records' lifetime.
func (c *Collector) UseSlab(s *RecordSlab) { c.slab = s }

// SetTap attaches a telemetry tap observing packet starts and completions.
// now supplies the current simulated time for completion events. A nil tap
// (the default) disables packet telemetry.
func (c *Collector) SetTap(t *telemetry.Tap, now func() float64) {
	c.tap = t
	c.now = now
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{participants: make(map[medium.NodeID]struct{})}
}

// Start opens a record for a new application packet.
func (c *Collector) Start(src, dst medium.NodeID, now float64) *PacketRecord {
	var r *PacketRecord
	if c.slab != nil {
		r = c.slab.get()
	} else {
		r = &PacketRecord{}
	}
	r.Seq, r.Src, r.Dst, r.SentAt = len(c.records), src, dst, now
	c.records = append(c.records, r)
	if c.tap != nil {
		c.tap.PacketSent(now, r.Seq, int(src), int(dst))
	}
	return r
}

// Complete finalizes a record (delivered or not) and snapshots the
// cumulative participant count. Participating nodes are the forwarders and
// random forwarders on the path — the endpoints themselves are not counted,
// matching the paper's "RFs and relay nodes that actually participate in
// routing" (GPSR's stable shortest path then shows its characteristic 2-3
// participants in Fig. 10b).
//
// Complete is idempotent: only the first call for a record counts, so a
// late link-layer outcome cannot double-complete a packet the protocol's
// timeout already closed.
func (c *Collector) Complete(r *PacketRecord, deliveredAt float64, delivered bool) {
	if r.done {
		return
	}
	r.done = true
	r.Delivered = delivered
	if delivered {
		r.DeliveredAt = deliveredAt
	}
	for _, id := range r.Path {
		if id != r.Src && id != r.Dst {
			c.participants[id] = struct{}{}
		}
	}
	c.completed++
	c.cumulative = append(c.cumulative, len(c.participants))
	if c.tap != nil {
		at := deliveredAt
		if c.now != nil {
			at = c.now()
		}
		c.tap.PacketDone(at, r.Seq, delivered, r.Hops, r.Latency())
	}
}

// Records returns all packet records.
func (c *Collector) Records() []*PacketRecord { return c.records }

// Sent returns how many packets were issued.
func (c *Collector) Sent() int { return len(c.records) }

// Completed returns how many packets finished (delivered or dropped).
func (c *Collector) Completed() int { return c.completed }

// Unfinished returns how many packets were issued but never completed. A
// drained run must end at zero: every send reaches exactly one terminal
// outcome (the accounting leak this counter regresses — frames lost on air
// used to vanish with Completed() < Sent() silently).
func (c *Collector) Unfinished() int { return len(c.records) - c.completed }

// Delivered returns the exact number of delivered packets. Energy-per-
// delivered and similar ratios should use this count directly rather than
// reconstructing it from Sent*DeliveryRate.
func (c *Collector) Delivered() int {
	d := 0
	for _, r := range c.records {
		if r.Delivered {
			d++
		}
	}
	return d
}

// DeliveryRate returns delivered / sent (0 for no packets).
func (c *Collector) DeliveryRate() float64 {
	if len(c.records) == 0 {
		return 0
	}
	return float64(c.Delivered()) / float64(len(c.records))
}

// MeanLatency returns the average end-to-end delay over delivered packets.
func (c *Collector) MeanLatency() float64 {
	sum, n := 0.0, 0
	for _, r := range c.records {
		if r.Delivered {
			sum += r.Latency()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// HopsPerPacket returns accumulated hop counts divided by packets sent
// (the paper's metric 4), including ExtraHops overhead.
func (c *Collector) HopsPerPacket() float64 {
	if len(c.records) == 0 {
		return 0
	}
	total := float64(c.ExtraHops)
	for _, r := range c.records {
		total += float64(r.Hops)
	}
	return total / float64(len(c.records))
}

// HopsPerDelivered returns the mean hops of the delivered packets (0 for
// none), the hop count a live fleet, seeing only deliveries, measures too.
func (c *Collector) HopsPerDelivered() float64 {
	hops, n := 0, 0
	for _, r := range c.records {
		if r.Delivered {
			hops += r.Hops
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(hops) / float64(n)
}

// MeanRFs returns the average number of random forwarders per packet.
func (c *Collector) MeanRFs() float64 {
	if len(c.records) == 0 {
		return 0
	}
	sum := 0
	for _, r := range c.records {
		sum += r.RFs
	}
	return float64(sum) / float64(len(c.records))
}

// Participants returns the cumulative number of distinct nodes that have
// taken part in routing.
func (c *Collector) Participants() int { return len(c.participants) }

// CumulativeParticipants returns the participant-set size after each
// completed packet, i.e. the series plotted in Fig. 10a.
func (c *Collector) CumulativeParticipants() []int {
	out := make([]int, len(c.cumulative))
	copy(out, c.cumulative)
	return out
}
