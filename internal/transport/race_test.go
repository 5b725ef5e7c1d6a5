//go:build race

package transport

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of Put items on purpose, so pooled paths allocate.
const raceEnabled = true
