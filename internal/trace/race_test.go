//go:build race

package trace

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of the items put into it, so pool reuse cannot be asserted.
const raceEnabled = true
