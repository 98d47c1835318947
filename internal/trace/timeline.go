package trace

import "repro/internal/sim"

// Timeline accumulates one track's busy time into fixed windows (→
// utilization). It is fed passively from observer callbacks — no
// sampling events are scheduled — so it exists outside the simulation's
// event stream.
type Timeline struct {
	busy  *sim.UtilRecorder
	total sim.Time
}

// NewTimeline creates an empty timeline with the given window width.
func NewTimeline(window sim.Time) *Timeline {
	return &Timeline{busy: sim.NewUtilRecorder(window)}
}

// Window returns the window width.
func (t *Timeline) Window() sim.Time { return t.busy.Window() }

// AddBusy credits the busy interval [from, to) across the windows it
// overlaps.
func (t *Timeline) AddBusy(from, to sim.Time) {
	t.busy.Spread(from, to, 1)
	t.total += to - from
}

// TotalBusy returns the summed busy time over all windows.
func (t *Timeline) TotalBusy() sim.Time { return t.total }

// UtilSeries returns the utilization in [0,1] of the first n windows.
func (t *Timeline) UtilSeries(n int) []float64 {
	return t.busy.Values(n, float64(t.busy.Window()))
}
