package main

import "testing"

// TestParseFlagsLiveProtocols pins which protocols reach a live fleet: the
// comparators run only in -mode sim, and are refused before any fleet is
// spawned in -mode live and -mode both.
func TestParseFlagsLiveProtocols(t *testing.T) {
	for _, p := range []string{"alert", "gpsr", "ao2p", "alarm", "zap"} {
		live := p == "alert" || p == "gpsr"
		for _, mode := range []string{"sim", "live", "both"} {
			_, err := parseFlags([]string{"-protocol", p, "-mode", mode})
			if ok := mode == "sim" || live; ok != (err == nil) {
				t.Errorf("-protocol %s -mode %s: err = %v, want accepted = %v", p, mode, err, ok)
			}
		}
	}
}
