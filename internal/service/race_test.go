//go:build race

package service

// raceEnabled reports a -race build. Its sync.Pool drops puts at
// random, so allocation counts vary from run to run.
const raceEnabled = true
