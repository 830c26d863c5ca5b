//go:build race

package deterministic

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-count pins are skipped because instrumentation changes them.
const raceEnabled = true
