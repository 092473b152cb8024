// Package node assembles the per-node runtime state every routing protocol
// in this repository builds on: a stable internal id, a MAC address, a
// rotating pseudonym (Section 2.2), a public/private key pair, and access
// to the shared simulation substrates (engine, channel, mobility, crypto
// suite and cost model).
package node

import (
	"cmp"
	"slices"

	"alertmanet/internal/crypt"
	"alertmanet/internal/geo"
	"alertmanet/internal/medium"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
	"alertmanet/internal/telemetry"
)

// Node is one participant in the MANET.
type Node struct {
	// ID is the dense simulation index (also the medium.NodeID).
	ID medium.NodeID
	// MAC is the node's real hardware address; it never appears in
	// packets — only pseudonyms derived from it do.
	MAC uint64
	// Pseudonym is the node's current temporary identifier.
	Pseudonym crypt.Pseudonym
	// RegisteredPseudonym is the pseudonym the node most recently
	// registered with its location service; destinations keep accepting
	// packets addressed to it even after local rotation, since sources
	// learned it from the service (Section 2.2).
	RegisteredPseudonym crypt.Pseudonym
	// Pub and Priv are the node's key pair, distributed through the
	// location service.
	Pub  crypt.PubKey
	Priv crypt.PrivKey

	net *Network
	rnd *rng.Source
	// PseudonymUpdates counts rotations, for the f << F overhead
	// analysis of Section 4.3.
	PseudonymUpdates int
}

// CryptoOps tallies cryptographic operations across the network, feeding
// the energy accounting (public-key operations cost hundreds of times a
// symmetric one, per the paper's reference [26]).
type CryptoOps struct {
	Sym uint64
	Pub uint64
}

// Network bundles the substrates of one simulated MANET and owns its nodes.
type Network struct {
	Eng   *sim.Engine
	Med   *medium.Medium
	Suite *crypt.FastSuite
	Costs crypt.CostModel
	Nodes []*Node
	// Ops counts cryptographic operations performed by all nodes.
	Ops CryptoOps

	// tap, when non-nil, observes crypto cost charges.
	tap *telemetry.Tap
}

// SetTap attaches a telemetry tap observing crypto cost charges. A nil tap
// (the default) disables them.
func (net *Network) SetTap(t *telemetry.Tap) { net.tap = t }

// PseudonymLifetime is how often nodes rotate pseudonyms, in seconds. Too
// frequent perturbs routing, too infrequent lets an adversary associate
// pseudonyms with nodes (Section 2.2).
const PseudonymLifetime = 10.0

// NewNetwork creates the nodes on top of an existing engine and medium and
// assigns MAC addresses, key pairs and initial pseudonyms.
func NewNetwork(eng *sim.Engine, med *medium.Medium, suite *crypt.FastSuite,
	costs crypt.CostModel, src *rng.Source) *Network {
	net := &Network{
		Eng:   eng,
		Med:   med,
		Suite: suite,
		Costs: costs,
	}
	rnd := src.Split("node")
	n := med.N()
	net.Nodes = make([]*Node, n)
	// Per-node creation forks on large fields: each node's rng stream, key
	// pair and initial pseudonym derive only from index-split sources
	// (SplitIndex reads the immutable parent seed), so the built world is
	// byte-identical for any degree. Below the fork threshold For runs the
	// loop inline.
	sim.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nd := &Node{
				ID:  medium.NodeID(i),
				MAC: 0x02_00_00_00_00_00 | uint64(i), // locally-administered space
				net: net,
				rnd: rnd.SplitIndex("n", i),
			}
			nd.Pub, nd.Priv = suite.GenerateKeyPair(i)
			nd.rotatePseudonym()
			net.Nodes[i] = nd
		}
	})
	return net
}

// RotatePseudonyms rotates every node's pseudonym every PseudonymLifetime
// seconds, each from its own random start so rotations do not all fire at
// once. Until it is called nodes keep their initial pseudonyms, and an
// engine with no other events drains.
//
// Each node's start is drawn from its own stream, in node order. The whole
// network then shares one pending event, which rotates the node that is due
// and re-arms at the next one's instant. The instants, their order and the
// pseudonyms are those of one sim.Engine.Ticker per node, without keeping N
// events in the queue for the whole run.
func (net *Network) RotatePseudonyms() {
	net.rotateFrom(func(nd *Node) sim.Time { return nd.rnd.Uniform(0, PseudonymLifetime) })
}

// rotateFrom arms the rotation schedule, each node first rotating at
// start(node), called in node order.
func (net *Network) rotateFrom(start func(*Node) sim.Time) {
	if len(net.Nodes) == 0 {
		return
	}
	r := &rotation{eng: net.Eng, due: make([]rotationDue, len(net.Nodes))}
	for i, nd := range net.Nodes {
		r.due[i] = rotationDue{at: start(nd), nd: nd}
	}
	slices.SortFunc(r.due, func(a, b rotationDue) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.nd.ID, b.nd.ID)
	})
	r.eng.AtRunner(r.due[0].at, r)
}

// rotation is the network's pseudonym-rotation schedule: the nodes in the
// order they first rotate, each with its next rotation instant, and the
// index of the one due next. Every node's period is the same, and adding
// it to two instants never reverses their order, so the nodes stay due in
// this cyclic order for the whole run, and nodes whose instants meet rotate
// in the order their per-node tickers would have.
type rotation struct {
	eng  *sim.Engine
	due  []rotationDue
	next int
}

// rotationDue is one node's next rotation instant.
type rotationDue struct {
	at sim.Time
	nd *Node
}

// RunEvent implements sim.Runner: rotate the node that is due, move its
// instant one lifetime on (accumulated as the ticker it replaces did), and
// re-arm at the next node's instant.
func (r *rotation) RunEvent() {
	d := &r.due[r.next]
	d.nd.rotatePseudonym()
	d.at += PseudonymLifetime
	if r.next++; r.next == len(r.due) {
		r.next = 0
	}
	r.eng.AtRunner(r.due[r.next].at, r)
}

func (n *Node) rotatePseudonym() {
	n.Pseudonym = crypt.NewPseudonym(n.MAC, n.net.Eng.Now(), n.rnd)
	n.PseudonymUpdates++
}

// Position returns the node's true position now.
func (n *Node) Position() geo.Point { return n.net.Med.PositionNow(n.ID) }

// PositionAt returns the node's true position at time t.
func (n *Node) PositionAt(t float64) geo.Point {
	return n.net.Med.TruePosition(n.ID, t)
}

// Node returns the node with the given id.
func (net *Network) Node(id medium.NodeID) *Node { return net.Nodes[id] }

// N returns the number of nodes.
func (net *Network) N() int { return len(net.Nodes) }

// Field returns the network area.
func (net *Network) Field() geo.Rect { return net.Med.Mobility().Field() }

// NoteSym records n symmetric operations for energy accounting. It charges
// no latency: protocols schedule that from Costs at the call site.
func (net *Network) NoteSym(n int) {
	net.Ops.Sym += uint64(n)
	if net.tap != nil {
		net.tap.Crypto(net.Eng.Now(), "sym", n)
	}
}

// NotePub records n public-key operations for energy accounting.
func (net *Network) NotePub(n int) {
	net.Ops.Pub += uint64(n)
	if net.tap != nil {
		net.tap.Crypto(net.Eng.Now(), "pub", n)
	}
}
