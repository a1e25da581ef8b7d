//go:build race

package bulk

func init() { raceEnabled = true }
