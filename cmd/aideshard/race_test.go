//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation inflates
// every process's memory past what the peak-RSS tests bound.
const raceEnabled = true
