//go:build race

package binder

// raceEnabled gates the allocation-budget test: the race detector adds
// allocations of its own, so the budget only holds in normal builds.
const raceEnabled = true
