//go:build race

package erasure

func init() { raceEnabled = true }
