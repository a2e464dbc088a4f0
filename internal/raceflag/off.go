//go:build !race

// Package raceflag tells tests whether the race detector is compiled in.
// Tests that pin or compare allocation counts skip when it is: under the
// detector sync.Pool drops a random quarter of its puts, so a path through
// a pooled buffer (reflect's call frames) allocates 49 objects on one run
// and 50 on the next.
package raceflag

const Enabled = false
