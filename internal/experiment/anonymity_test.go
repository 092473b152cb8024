package experiment

import (
	"fmt"
	"testing"
)

// TestIntersectionAttackGuardHelps is the Section 3.3 headline: without the
// two-step multicast a patient attacker converges on (or near) the
// destination; with it, the destination escapes the intersection.
func TestIntersectionAttackGuardHelps(t *testing.T) {
	dstPlain, dstGuard := 0, 0
	candPlain := 0
	const trials = 5
	for seed := int64(1); seed <= trials; seed++ {
		plain := IntersectionAttack(seed, 25, false)
		guard := IntersectionAttack(seed, 25, true)
		if plain.DstCandidate {
			dstPlain++
		}
		if guard.DstCandidate {
			dstGuard++
		}
		candPlain += plain.Candidates
	}
	// Plain broadcasting: D receives every packet, so it survives every
	// intersection — the attack keeps closing in.
	if dstPlain < trials-1 {
		t.Fatalf("plain broadcasting kept D a candidate only %d/%d times; attack model toothless",
			dstPlain, trials)
	}
	// The attacker's candidate pool shrinks toward D over the session.
	if candPlain/trials > 25 {
		t.Fatalf("plain candidate pool %d too large; intersection not converging",
			candPlain/trials)
	}
	// The two-step multicast makes D miss observed recipient sets, so the
	// intersection usually loses it entirely (Section 3.3's foil).
	if dstGuard >= dstPlain {
		t.Fatalf("guard did not help: D candidate %d/%d with vs %d/%d without",
			dstGuard, trials, dstPlain, trials)
	}
}

func TestIntersectionAttackObservesWaves(t *testing.T) {
	r := IntersectionAttack(3, 10, false)
	if r.Waves < 5 {
		t.Fatalf("attacker saw only %d waves for 10 packets", r.Waves)
	}
}

// TestSourceAnonymityNotifyAndGo: with the mechanism, the observer sees
// eta+1 transmitters; without it, essentially one.
func TestSourceAnonymityNotifyAndGo(t *testing.T) {
	with := SourceAnonymity(1, true)
	without := SourceAnonymity(1, false)
	if with.AnonymitySet <= without.AnonymitySet {
		t.Fatalf("notify-and-go set (%d) should exceed plain (%d)",
			with.AnonymitySet, without.AnonymitySet)
	}
	if with.Neighbors > 0 && with.AnonymitySet < with.Neighbors/2 {
		t.Fatalf("anonymity set %d far below eta=%d", with.AnonymitySet, with.Neighbors)
	}
	if without.AnonymitySet > 3 {
		t.Fatalf("plain send exposed %d transmitters near S; expected ~1",
			without.AnonymitySet)
	}
}

// TestTimingAttackALERTBlursSignature: GPSR's fixed path yields a high
// timing-correlation score; ALERT's random routes lower it (Section 3.2).
func TestTimingAttackALERTBlursSignature(t *testing.T) {
	var alertSum, gpsrSum float64
	const trials = 3
	for seed := int64(1); seed <= trials; seed++ {
		alertSum += TimingAttackScore(seed, ALERT, 20)
		gpsrSum += TimingAttackScore(seed, GPSR, 20)
	}
	if alertSum >= gpsrSum {
		t.Fatalf("ALERT timing score (%v) should be below GPSR (%v)",
			alertSum/trials, gpsrSum/trials)
	}
	if gpsrSum/trials < 0.5 {
		t.Fatalf("GPSR score %v too low; the attack should work on fixed paths",
			gpsrSum/trials)
	}
}

// TestInterceptionALERTDodgesCompromisedNodes: compromising the first
// route's relays captures (nearly) all GPSR traffic but only part of
// ALERT's (Section 3.1).
func TestInterceptionALERTDodgesCompromisedNodes(t *testing.T) {
	var alertSum, gpsrSum float64
	const trials = 3
	for seed := int64(1); seed <= trials; seed++ {
		alertSum += InterceptionExperiment(seed, ALERT, 20, 3)
		gpsrSum += InterceptionExperiment(seed, GPSR, 20, 3)
	}
	alertP := alertSum / trials
	gpsrP := gpsrSum / trials
	if gpsrP < 0.9 {
		t.Fatalf("GPSR interception %v; static shortest paths should be ~1", gpsrP)
	}
	if alertP >= gpsrP {
		t.Fatalf("ALERT interception (%v) should be below GPSR (%v)", alertP, gpsrP)
	}
}

func TestZoneOf(t *testing.T) {
	sc := DefaultScenario()
	w := MustBuild(sc)
	z := ZoneOf(w, 5)
	if z.Empty() {
		t.Fatal("zone empty")
	}
	if !w.Net.Field().ContainsRect(z) {
		t.Fatal("zone outside field")
	}
	// GPSR world: ZoneOf falls back to the ALERT geometry.
	sc.Protocol = GPSR
	w2 := MustBuild(sc)
	z2 := ZoneOf(w2, 5)
	if z2.Empty() {
		t.Fatal("fallback zone empty")
	}
	// The fallback follows the scenario's k, not the default one: with
	// K = 3 (H = 6) a GPSR world's zone must be the ALERT world's.
	sc.Alert.K = 3
	for _, p := range []ProtocolName{GPSR, AO2P} {
		alert, base := sc, sc
		alert.Protocol, base.Protocol = ALERT, p
		want, got := ZoneOf(MustBuild(alert), 5), ZoneOf(MustBuild(base), 5)
		if got != want {
			t.Errorf("%s world zone %v, ALERT world zone %v", p, got, want)
		}
	}
}

// TestDoSAttackALERTSurvives: after the adversary subverts the first
// route's relays, GPSR keeps feeding packets into the dead nodes while
// ALERT's random forwarders route around them (Section 3.1).
func TestDoSAttackALERTSurvives(t *testing.T) {
	var alertAfter, gpsrAfter float64
	var alertBase, gpsrBase float64
	const trials = 3
	for seed := int64(1); seed <= trials; seed++ {
		a := DoSAttack(seed, ALERT, 20, 3)
		g := DoSAttack(seed, GPSR, 20, 3)
		if a.Compromised == 0 || g.Compromised == 0 {
			t.Fatalf("seed %d: no nodes compromised (a=%d g=%d)",
				seed, a.Compromised, g.Compromised)
		}
		alertBase += a.BaselineDelivery
		gpsrBase += g.BaselineDelivery
		alertAfter += a.UnderAttackDelivery
		gpsrAfter += g.UnderAttackDelivery
	}
	if gpsrBase/trials < 0.9 {
		t.Fatalf("GPSR baseline delivery %v too low", gpsrBase/trials)
	}
	// GPSR must collapse: its only path runs through the dead relays.
	if gpsrAfter/trials > 0.5 {
		t.Fatalf("GPSR under DoS still delivers %v; compromise ineffective", gpsrAfter/trials)
	}
	// ALERT must keep a clear majority of its traffic flowing.
	if alertAfter/trials < 0.6 {
		t.Fatalf("ALERT under DoS delivers only %v", alertAfter/trials)
	}
	if alertAfter/trials <= gpsrAfter/trials {
		t.Fatalf("ALERT (%v) should out-deliver GPSR (%v) under DoS",
			alertAfter/trials, gpsrAfter/trials)
	}
	_ = alertBase
}

// TestIntersectionRemedyCost reproduces Section 3.3's trade-off argument:
// ZAP's zone enlargement makes per-packet cost grow through the session,
// while ALERT's two-step multicast keeps it flat.
func TestIntersectionRemedyCost(t *testing.T) {
	var zapGrowth, alertGrowth float64
	const trials = 3
	for seed := int64(1); seed <= trials; seed++ {
		z := IntersectionRemedyCost(seed, 15, false)
		a := IntersectionRemedyCost(seed, 15, true)
		if z.HopsFirst == 0 || a.HopsFirst == 0 {
			t.Fatalf("seed %d: degenerate sessions (%v, %v)", seed, z, a)
		}
		zapGrowth += z.HopsLast - z.HopsFirst
		alertGrowth += a.HopsLast - a.HopsFirst
	}
	if zapGrowth/trials <= 1 {
		t.Fatalf("ZAP enlargement overhead growth %v too small", zapGrowth/trials)
	}
	if alertGrowth >= zapGrowth/2 {
		t.Fatalf("ALERT guard cost growth (%v) should be far below ZAP's (%v)",
			alertGrowth/trials, zapGrowth/trials)
	}
}

// TestReplayDeterminismDeep: two runs of the same seed agree packet by
// packet, not just in aggregate.
func TestReplayDeterminismDeep(t *testing.T) {
	collect := func() []string {
		sc := DefaultScenario()
		sc.Duration = 20
		w := MustBuild(sc)
		pairs := w.ChoosePairs()
		w.StartWorkload(pairs)
		w.Eng.RunUntil(sc.Duration + 5)
		var out []string
		for _, r := range w.Proto.Collector().Records() {
			out = append(out, fmt.Sprintf("%d:%d->%d d=%v hops=%d rfs=%d path=%v",
				r.Seq, r.Src, r.Dst, r.Delivered, r.Hops, r.RFs, r.Path))
		}
		return out
	}
	a := collect()
	b := collect()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}
