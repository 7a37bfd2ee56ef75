//go:build race

package sources_test

func init() { raceEnabled = true }
