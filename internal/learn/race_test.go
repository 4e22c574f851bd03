//go:build race

package learn

func init() { raceEnabled = true }
