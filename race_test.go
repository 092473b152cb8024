//go:build race

package alert

func init() { raceEnabled = true }
