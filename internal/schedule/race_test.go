//go:build race

package schedule

// The race detector's sync.Pool drops a random share of Puts, so pooled
// state is not reused reliably and allocation counts mean nothing.
func init() { raceEnabled = true }
