// Package locservice models the secure location service of Section 2.2:
// third-party servers that hold each node's current position and public key.
// A source that knows a destination's identity queries the service to learn
// the destination's location (to aim geographic routing) and its public key
// (to establish the session's symmetric key).
//
// The service is an oracle with the two behaviours the evaluation exercises:
//
//   - Update on/off. Figures 14b, 15b and 16b compare runs "with destination
//     update" (positions refreshed every UpdateInterval) against "without
//     destination update" (positions frozen at registration), which makes
//     fast-moving destinations unreachable by the stale coordinate.
//
//   - Overhead accounting. Section 4.3 argues the service is cheap as long
//     as N_L ~ sqrt(N) and the update frequency f is far below the
//     communication frequency F; the package counts the messages in those
//     formulas so the claim can be checked numerically.
//
// Every lookup succeeds: the paper assumes seamless switch-over between
// replicated servers, so no replica fails here. The signed request and
// sealed response of Section 2.2 are authentication, which this
// reproduction leaves out: Lookup counts that exchange and returns the
// entry directly.
package locservice

import (
	"math"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/node"
	"alertmanet/internal/sim"
)

// UpdateInterval is the position-update period in seconds (1/f), the
// paper's single location-update rate.
const UpdateInterval = 2.0

// Entry is what a lookup returns about a node.
type Entry struct {
	Pos       geo.Point
	Pub       crypt.PubKey
	Pseudonym crypt.Pseudonym
	UpdatedAt float64
}

// Counters tallies service traffic for the Section 4.3 overhead analysis.
type Counters struct {
	// Updates counts node->server position/pseudonym updates (N*f*T).
	Updates uint64
	// Replications counts server<->server messages (N_L*(N_L-1)*f*T).
	Replications uint64
	// Lookups counts client queries.
	Lookups uint64
}

// Service is the replicated location service. It always runs
// N_L = ceil(sqrt(N)) replicated servers, per Section 4.3.
type Service struct {
	net        *node.Network
	updates    bool
	entries    []Entry
	numServers int // N_L
	counts     Counters
}

// New creates the service, registers every node's initial position and
// public key, and, when updates is set, refreshes them every
// UpdateInterval. updates distinguishes the paper's "with destination
// update" and "without destination update" runs.
func New(net *node.Network, updates bool) *Service {
	numServers := max(int(math.Ceil(math.Sqrt(float64(net.N())))), 1)
	s := &Service{net: net, updates: updates, numServers: numServers}
	s.entries = make([]Entry, net.N())
	now := net.Eng.Now()
	for i, nd := range net.Nodes {
		nd.RegisteredPseudonym = nd.Pseudonym
		s.entries[i] = Entry{Pos: nd.Position(), Pub: nd.Pub,
			Pseudonym: nd.Pseudonym, UpdatedAt: now}
	}
	if updates {
		net.Eng.Ticker(UpdateInterval, UpdateInterval,
			func(sim.Time) { s.updateAll() })
	}
	return s
}

func (s *Service) updateAll() {
	now := s.net.Eng.Now()
	for i, nd := range s.net.Nodes {
		nd.RegisteredPseudonym = nd.Pseudonym
		s.entries[i].Pos = nd.Position()
		s.entries[i].Pseudonym = nd.Pseudonym
		s.entries[i].UpdatedAt = now
		s.counts.Updates++
	}
	// Full-mesh replication among the servers.
	s.counts.Replications += uint64(s.numServers * (s.numServers - 1))
}

// Lookup returns the registered entry for a node. The query and encrypted
// response exchange with the node's own location server is abstracted to a
// counter.
func (s *Service) Lookup(id medium.NodeID) Entry {
	s.counts.Lookups++
	return s.entries[id]
}

// Counters returns a snapshot of service traffic.
func (s *Service) Counters() Counters { return s.counts }

// OverheadRatio evaluates Section 4.3's expression
//
//	(N_L*(N_L-1)*f + N*f) / (N*F)
//
// for this service's N_L and update frequency f against a given
// communication message frequency F (messages per node per second). The
// service is "cheap" when the ratio is much less than 1.
func (s *Service) OverheadRatio(commFreq float64) float64 {
	if commFreq <= 0 {
		return math.Inf(1)
	}
	f := 1.0 / UpdateInterval
	if !s.updates {
		f = 0
	}
	nl := float64(s.numServers)
	n := float64(s.net.N())
	return (nl*(nl-1)*f + n*f) / (n * commFreq)
}
