package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"alertmanet/internal/campaign"
	"alertmanet/internal/core"
	"alertmanet/internal/crypt"
	"alertmanet/internal/experiment"
	"alertmanet/internal/geo"
	"alertmanet/internal/gpsr"
	"alertmanet/internal/live"
	"alertmanet/internal/medium"
	"alertmanet/internal/rng"
	"alertmanet/internal/sim"
)

// probeNames are the per-call costs the probes measure, one exported
// function of one layer each.
var probeNames = []struct{ name, unit string }{
	{"rng.split_ns", "ns"},
	{"crypt.keypair_ns", "ns"},
	{"crypt.sym_seal_open_ns", "ns"},
	{"mobility.position_ns", "ns"},
	{"medium.neighbors_into_ns", "ns"},
	{"medium.nodes_within_into_ns", "ns"},
	{"gpsr.step_ns", "ns"},
	{"sim.event_ns", "ns"},
	{"live.frame_codec_ns", "ns"},
	{"campaign.cell_key_us", "us"},
	{"campaign.store_append_us", "us"},
	{"campaign.cache_put_us", "us"},
	{"campaign.cache_get_us", "us"},
}

// probe returns fn's cost per call in ns: the median of five repetitions,
// each running whole batches of calls for at least minDur. reset, when
// set, runs untimed before every batch.
func probe(minDur time.Duration, batch int, fn func(i int), reset func()) float64 {
	var reps [5]float64
	i := 0
	for r := range reps {
		var spent time.Duration
		calls := 0
		for calls == 0 || spent < minDur {
			if reset != nil {
				reset()
			}
			t0 := time.Now()
			for k := 0; k < batch; k++ {
				fn(i)
				i++
			}
			spent += time.Since(t0)
			calls += batch
		}
		reps[r] = float64(spent.Nanoseconds()) / float64(calls)
	}
	return median(reps[:])
}

// probeWorld is a workload's own world run to the middle of its send
// horizon, with the inputs the probes replay taken from it at that
// instant: every node's position and neighbour table, the pairs, and the
// workload's payload size.
type probeWorld struct {
	sc      experiment.Scenario
	w       *experiment.World
	pending int // events queued mid-run: the heap depth sim.event_ns keeps
	pos     []geo.Point
	nbrs    [][]medium.Neighbor
	pairs   []experiment.Pair
	dests   []geo.Point
	payload []byte
}

func buildProbeWorld(sc experiment.Scenario) (*probeWorld, error) {
	w, err := experiment.Build(sc)
	if err != nil {
		return nil, err
	}
	pairs := w.ChoosePairs()
	w.StartWorkload(pairs)
	if err := w.Eng.RunUntil(sc.Duration / 2); err != nil {
		return nil, err
	}
	pw := &probeWorld{sc: sc, w: w, pending: w.Eng.Pending(), pairs: pairs,
		payload: make([]byte, 64)} // StartWorkload's payload size
	for id := 0; id < w.Mob.N(); id++ {
		pw.pos = append(pw.pos, w.Med.PositionNow(medium.NodeID(id)))
		pw.nbrs = append(pw.nbrs, w.Med.NeighborsInto(medium.NodeID(id), nil))
	}
	for _, p := range pairs {
		pw.dests = append(pw.dests, pw.pos[p.D])
	}
	return pw, nil
}

// partitions is the ALERT partition depth H the scenario routes with.
func partitions(sc experiment.Scenario, n int) int {
	if sc.Alert.H > 0 {
		return sc.Alert.H
	}
	return geo.PartitionsForK(n, sc.Alert.K)
}

// probeLayers measures every probe on the probe world's inputs.
func probeLayers(pw *probeWorld, e env, rep *report) error {
	sc, w, d := pw.sc, pw.w, e.probeDur
	n := len(pw.pos)
	set := func(name string, v float64) { rep.values[name] = one(v) }
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	src := rng.New(sc.Seed)
	set("rng.split_ns", probe(d, 256, func(i int) { src.SplitIndex("probe", i) }, nil))

	suite := crypt.NewFastSuite(rng.New(sc.Seed))
	set("crypt.keypair_ns", probe(d, 256, func(i int) { suite.GenerateKeyPair(i) }, nil))

	key := crypt.NewSymKey(src)
	set("crypt.sym_seal_open_ns", probe(d, 256, func(int) {
		_, err := crypt.SymOpen(key, crypt.SymSeal(key, pw.payload, src))
		check(err)
	}, nil))

	// Positions are asked for in sweeps forward through the send horizon,
	// the order the simulator asks in.
	const steps = 100
	step := sc.Duration / steps
	set("mobility.position_ns", probe(d, 1024, func(i int) {
		w.Mob.Position(i%n, float64((i/n)%steps)*step)
	}, nil))

	var nb []medium.Neighbor
	set("medium.neighbors_into_ns", probe(d, 1024, func(i int) {
		nb = w.Med.NeighborsInto(medium.NodeID(i%n), nb[:0])
	}, nil))

	h := partitions(sc, n)
	zones := make([]geo.Rect, len(pw.dests))
	for i, p := range pw.dests {
		zones[i] = geo.DestZone(sc.Field, p, h, geo.Vertical)
	}
	var ids []medium.NodeID
	set("medium.nodes_within_into_ns", probe(d, 1024, func(i int) {
		ids = w.Med.NodesWithinInto(zones[i%len(zones)], ids[:0])
	}, nil))

	rangeM := w.Med.Params().Range
	closest := sc.Protocol == experiment.ALERT
	var scratch []medium.Neighbor
	set("gpsr.step_ns", probe(d, 1024, func(i int) {
		cur := i % n
		st := gpsr.NewForwardState()
		_, _, _, scratch = gpsr.Step(medium.NodeID(cur), pw.pos[cur], pw.pos[cur],
			pw.dests[i%len(pw.dests)], closest, rangeM, gpsr.GabrielGraph, pw.nbrs[cur], scratch, &st)
	}, nil))

	// One schedule and one step on a heap held at the world's mid-run depth.
	eng := sim.NewEngine()
	delays := make([]float64, 1024)
	for i := range delays {
		delays[i] = src.Uniform(0, 1)
	}
	noop := func() {}
	for i := 0; i < pw.pending; i++ {
		eng.Schedule(delays[i%len(delays)], noop)
	}
	set("sim.event_ns", probe(d, 1024, func(i int) {
		eng.Schedule(delays[i%len(delays)], noop)
		eng.Step()
	}, nil))

	f, err := dataFrame(pw, h, suite, key, src)
	if err != nil {
		return err
	}
	var buf []byte
	var g live.Frame
	set("live.frame_codec_ns", probe(d, 1024, func(int) {
		var err error
		if buf, err = live.AppendFrame(buf[:0], &f); err == nil {
			err = live.DecodeFrame(buf, &g)
		}
		check(err)
	}, nil))

	if err := probeCampaign(pw, e, set); err != nil {
		return err
	}
	if failed != nil {
		return fmt.Errorf("probe: %w", failed)
	}
	return nil
}

// dataFrame builds the ALERT data frame a random forwarder relays for the
// world's first pair: real ciphertext fields, the pair's destination zone,
// a path of a few hops and the workload's payload.
func dataFrame(pw *probeWorld, h int, suite *crypt.FastSuite, key crypt.SymKey, src *rng.Source) (live.Frame, error) {
	pr := pw.pairs[0]
	pub, _ := suite.GenerateKeyPair(int(pr.D))
	encKey, err := suite.EncryptPub(pub, key[:])
	if err != nil {
		return live.Frame{}, err
	}
	path := []int32{int32(pr.S)}
	for _, nb := range pw.nbrs[pr.S] {
		if len(path) == 4 {
			break
		}
		path = append(path, int32(nb.ID))
	}
	zone := geo.DestZone(pw.sc.Field, pw.dests[0], h, geo.Vertical)
	td := zone.Center()
	return live.Frame{
		Kind: live.KindData, SendID: 1, From: int32(pr.S), To: path[len(path)-1],
		Flags: live.FlagEnvelope, VTime: 0.01, Size: uint32(pw.sc.PacketSize),
		SrcPos: pw.pos[pr.S], Seq: 1, Dest: td, DeliverTo: live.None,
		HopBudget: 10, Hops: uint16(len(path) - 1), Mode: gpsr.Greedy,
		Prev: live.None, FirstFrom: live.None, FirstTo: live.None, Path: path,
		Env: &live.Envelope{
			Kind: core.KindData,
			PS:   crypt.NewPseudonym(uint64(pr.S), 0, src),
			PD:   crypt.NewPseudonym(uint64(pr.D), 0, src),
			LZD:  zone, TD: td, Dir: geo.Vertical, Hdiv: 1, Hmax: h,
			Zone: pw.sc.Field, DPubOwner: int32(pr.D), Seq: 1,
			EncLZS:    crypt.SymSeal(key, make([]byte, 32), src),
			EncSymKey: encKey,
			EncTTL:    crypt.SymSeal(key, []byte{10}, src),
			EncBitmap: crypt.SymSeal(key, make([]byte, 8), src),
			Payload:   crypt.SymSeal(key, pw.payload, src),
		},
	}, nil
}

// probeCampaign measures the campaign layer's per-cell bookkeeping on a
// record of the probe world's own scenario: keying a cell, appending to a
// store, and putting to and getting from the cache.
func probeCampaign(pw *probeWorld, e env, set func(string, float64)) error {
	cell := campaign.RunCell(pw.sc)
	set("campaign.cell_key_us", probe(e.probeDur, 64, func(int) { cell.Key() }, nil)/1e3)
	rec, err := cell.Execute(nil)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.workDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Distinct content-addressed keys, one per call of a batch; each batch
	// starts from an empty store or cache so no key repeats in one. Cache
	// batches are smaller: a put costs tens of µs more than an append.
	const batch, cacheBatch = 512, 64
	keys := make([]string, batch)
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	withKey := func(i int) *campaign.Record {
		r := *rec
		r.Key = keys[i%batch]
		return &r
	}

	// A store or cache that fails to open leaves nil behind; the calls
	// then do nothing and the error is returned once the probe ends.
	storeDir := filepath.Join(dir, "store")
	var store *campaign.Store
	set("campaign.store_append_us", probe(e.probeDur, batch, func(i int) {
		if store != nil {
			check(store.Append(withKey(i)))
		}
	}, func() {
		if store != nil {
			check(store.Close())
		}
		check(os.RemoveAll(storeDir))
		var err error
		store, err = campaign.OpenStore(storeDir)
		check(err)
	})/1e3)
	if store != nil {
		check(store.Close())
	}

	cacheDir := filepath.Join(dir, "cache")
	var cache *campaign.Cache
	set("campaign.cache_put_us", probe(e.probeDur, cacheBatch, func(i int) {
		if cache != nil {
			check(cache.Put(withKey(i % cacheBatch)))
		}
	}, func() {
		check(os.RemoveAll(cacheDir))
		var err error
		cache, err = campaign.OpenCache(cacheDir)
		check(err)
	})/1e3)
	if failed != nil {
		return failed
	}
	set("campaign.cache_get_us", probe(e.probeDur, cacheBatch, func(i int) {
		if cache.Get(keys[i%cacheBatch]) == nil {
			check(fmt.Errorf("cache lost key %.12s", keys[i%cacheBatch]))
		}
	}, nil)/1e3)
	return failed
}
