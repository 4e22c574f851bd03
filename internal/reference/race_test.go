//go:build race

package reference_test

func init() { raceEnabled = true }
