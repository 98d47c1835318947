//go:build !race

package controller

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and so cannot take part in allocation counts.
const raceEnabled = false
