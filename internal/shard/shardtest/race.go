package shardtest

import "runtime/debug"

// RaceEnabled reports whether the binary was built with -race. Under
// the race detector sync.Pool drops items at random, so allocation
// ceilings over pooled probe buffers hold only without it.
func RaceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
