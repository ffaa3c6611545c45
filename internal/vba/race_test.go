//go:build race

package vba

// A -race build's sync.Pool drops a random share of Put items, so pooled
// buffers are re-made at random.
func init() { raceEnabled = true }
