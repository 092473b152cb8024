// Request/reply: Section 2.2's interaction model — "a source node S sends
// a request to a destination node D and the destination responds with
// data." The request travels like any data packet; the response is sealed
// under the session key and routed anonymously back to the source's H-th
// partitioned zone L_{Z_S} (which D decrypted from the request), addressed
// to the source's pseudonym. Neither direction ever carries an identity or
// an exact position.

package core

import (
	"alertmanet/internal/crypt"
	"alertmanet/internal/medium"
	"alertmanet/internal/metrics"
)

// RequestHandler produces the destination's response to a delivered
// request. It runs at the destination node.
type RequestHandler func(dst medium.NodeID, query []byte) []byte

// ReplyFunc receives the response back at the source.
type ReplyFunc func(data []byte, t float64)

// Request sends a query from src to dst and invokes onReply at the source
// when the destination's response arrives. The destination's behaviour
// comes from the protocol-wide OnRequest handler; without one, requests are
// delivered like plain data and no response flows. The returned record
// tracks the request leg; the reply's hops accumulate onto it. A session
// establishment failure propagates like Send's.
func (p *Protocol) Request(src, dst medium.NodeID, query []byte, onReply ReplyFunc) (*metrics.PacketRecord, error) {
	rec, err := p.Send(src, dst, query)
	if err != nil {
		return rec, err
	}
	// Send stored the flight in the session; mark it as a request.
	sess := p.session(src, dst)
	if f, ok := sess.flights[sess.nextSeq-1]; ok {
		f.env.isRequest = true
		f.onReply = onReply
	}
	return rec, nil
}

// respond runs at the destination after a request is delivered: build the
// RREP and route it to the source zone.
func (p *Protocol) respond(at medium.NodeID, env *Envelope, sess *session, query []byte) {
	if p.OnRequest == nil || sess.dest.zs.Empty() {
		return
	}
	response := p.OnRequest(at, query)
	if response == nil {
		return
	}
	reply := &Envelope{
		Kind: KindData,
		PS:   p.net.Node(at).Pseudonym,
		PD:   env.PS, // the requester's pseudonym
		// The cut direction is drawn before the seal below: rng order.
		Partition: NewPartition(sess.dest.zs, p.field, p.hDef, p.rnd),
		Seq:       env.Seq,
		Payload:   crypt.SymSeal(sess.dest.key, response, p.rnd),
		isReply:   true,
		replyFor:  env.flight,
	}
	p.counts.Replies++
	p.net.NoteSym(1)
	p.net.Eng.Schedule(p.net.Costs.SymEncrypt, func() { p.route(at, reply) })
}

// deliverReply runs at the source when a response envelope reaches it. S
// hears the zone broadcast from its origin and from each relay: it takes
// the first copy, and every later one returns here at once.
func (p *Protocol) deliverReply(at medium.NodeID, env *Envelope) {
	f := env.replyFor
	if f == nil || f.replied || f.src != at {
		return
	}
	f.replied = true
	sess := p.session(f.src, f.dst)
	p.net.NoteSym(1)
	p.net.Eng.Schedule(p.net.Costs.SymDecrypt, func() {
		plain, err := crypt.SymOpen(sess.key, env.Payload)
		if err != nil {
			return
		}
		f.rec.Hops += env.replyHops
		if f.onReply != nil {
			f.onReply(plain, p.net.Eng.Now())
		}
	})
}
