//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so pooled-allocation budgets do not hold.
const raceEnabled = true
