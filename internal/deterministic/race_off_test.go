//go:build !race

package deterministic

const raceEnabled = false
