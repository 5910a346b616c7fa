//go:build race

package bench

// The race detector makes sync.Pool drop a quarter of its Puts at random,
// so a budget that counts on the pools cannot hold under it.
func init() { raceEnabled = true }
