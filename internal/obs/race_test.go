//go:build race

package obs

// The race detector makes sync.Pool drop a quarter of its Puts at random,
// so a test cannot count on getting a recycled recorder back.
func init() { raceEnabled = true }
