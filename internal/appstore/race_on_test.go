//go:build race

package appstore

// RaceEnabled gates the full-scale corpus test: under the race detector
// the 890,855-app scan takes minutes, so it only runs in normal builds.
const RaceEnabled = true
