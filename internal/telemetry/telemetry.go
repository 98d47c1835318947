// Package telemetry is a passive time-series engine for the simulator.
//
// A Collector samples counters, gauges, and latency histograms over
// *simulated* time in fixed windows: host throughput and tail latency
// per window, per-tenant queue depth, GC activity, Omnibus grant wait,
// RAS/fault event counts, and array rebuild progress. It also owns the
// per-request latency Attribution objects (attribution.go) that
// decompose every request's end-to-end latency into named phases.
//
// The collector follows the internal/trace contract exactly:
//
//   - A nil *Collector is valid and every method is a no-op, so model
//     code calls hooks unconditionally and a run without telemetry
//     pays only nil checks.
//   - The collector never schedules events and never consults the
//     engine; callers pass the current simulated time into every hook.
//     An instrumented run therefore executes a bit-identical event
//     sequence (pinned by TestTelemetryOffIsBitIdentical).
//   - All accumulation is commutative or fed in deterministic order,
//     so exported series are byte-identical at any -parallel count.
package telemetry

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// windowHistDensity is the bucket resolution of the small per-window
// latency histograms (coarser than the run-level 90/decade histograms;
// ~8% bucket error is fine for sparklines).
const windowHistDensity = 30

// Config selects telemetry collection. The zero value is usable.
type Config struct {
	// Window is the sampling window width in simulated time.
	// Zero selects sim.DefaultWindow.
	Window sim.Time
}

// level is a step function of simulated time — GC activity (0 or 1), a
// tenant's queue depth — integrated per window as level x duration.
type level struct {
	acc   *sim.UtilRecorder
	value int64
	since sim.Time
}

// set changes the level at time at, crediting the previous level over
// [since, at).
func (l *level) set(v int64, at sim.Time) {
	if l.value != 0 {
		l.acc.Spread(l.since, at, l.value)
	}
	l.value, l.since = v, at
}

// closed returns the integral with the open interval closed at end,
// leaving the level itself unchanged so Summary stays idempotent.
func (l *level) closed(end sim.Time) *sim.UtilRecorder {
	acc := l.acc.Clone()
	if l.value != 0 {
		acc.Spread(l.since, end, l.value)
	}
	return acc
}

// Collector accumulates all telemetry channels for one device run.
// It is not safe for concurrent use; like the trace recorder it lives
// inside a single engine's event callbacks (or is fed post-join from
// a single goroutine, as the array tier does). Every windowed channel
// is a sim.UtilRecorder.
type Collector struct {
	window sim.Time

	// Host completion channels, indexed by completion window.
	completed *sim.UtilRecorder
	bytes     *sim.UtilRecorder
	lat       []*stats.Histogram

	// Per-kind, per-phase attribution histograms for the whole run.
	phaseHist   [2][NumPhases]*stats.Histogram
	phaseTotal  [2][NumPhases]sim.Time
	requests    int64
	attViolated int64

	// GC activity: time inside a round per window plus copy counts.
	gc        level
	gcCopies  *sim.UtilRecorder
	gcSeen    bool
	lastEvent sim.Time // high-water mark of any hook, bounds open intervals

	// Omnibus grant wait: waited time integrated over the wait
	// interval, plus grant counts at resolution time.
	grantWait  *sim.UtilRecorder
	grantCount *sim.UtilRecorder
	grantSeen  bool

	// Counted instants (RAS/fault events) per window, keyed by class.
	// Map order never leaks: Summary sorts the keys.
	events map[string]*sim.UtilRecorder

	// Per-tenant submission-queue depth, qdepth[i] for tenants[i].
	tenants []string
	qdepth  []level

	// Array rebuild progress: pages rebuilt per window.
	rebuilt     *sim.UtilRecorder
	rebuildSeen bool

	// FMMU map-cache activity: lookup hits and misses per window. mapSeen
	// gates both the series and the PhaseMap attribution rows so flat-mode
	// summaries stay byte-identical to builds without the map unit.
	mapHits   *sim.UtilRecorder
	mapMisses *sim.UtilRecorder
	mapSeen   bool

	// Named instants (e.g. rebuild-detect) surfaced in the summary.
	marks []Mark
}

// New returns a collector with the configured window width.
func New(cfg Config) *Collector {
	w := cfg.Window
	if w <= 0 {
		w = sim.DefaultWindow
	}
	acc := func() *sim.UtilRecorder { return sim.NewUtilRecorder(w) }
	c := &Collector{
		window: w, completed: acc(), bytes: acc(),
		gc: level{acc: acc()}, gcCopies: acc(),
		grantWait: acc(), grantCount: acc(),
		events:  make(map[string]*sim.UtilRecorder),
		rebuilt: acc(), mapHits: acc(), mapMisses: acc(),
	}
	for k := 0; k < 2; k++ {
		for p := Phase(0); p < NumPhases; p++ {
			c.phaseHist[k][p] = stats.NewHistogram(90)
		}
	}
	return c
}

// Enabled reports whether the collector is active. Nil-safe.
func (c *Collector) Enabled() bool { return c != nil }

// Window returns the sampling window width.
func (c *Collector) Window() sim.Time {
	if c == nil {
		return 0
	}
	return c.window
}

// touch records the high-water mark so open intervals (an unfinished
// GC round, a tenant queue that never drains) can be closed at export.
func (c *Collector) touch(at sim.Time) {
	if at > c.lastEvent {
		c.lastEvent = at
	}
}

// RecordCompletion adds one finished request to the windowed host
// series. It is order-independent (pure slot-indexed adds), so the
// array tier can feed it from joined per-device results after the
// fact. complete must not precede arrival.
func (c *Collector) RecordCompletion(kind stats.IOKind, arrival, complete sim.Time, bytes int64) {
	if c == nil {
		return
	}
	c.touch(complete)
	c.completed.Add(complete, 1)
	c.bytes.Add(complete, bytes)
	w := int(complete / c.window)
	for len(c.lat) <= w {
		c.lat = append(c.lat, nil)
	}
	if c.lat[w] == nil {
		c.lat[w] = stats.NewHistogram(windowHistDensity)
	}
	c.lat[w].Add(complete - arrival)
}

// GCStarted marks the beginning of a GC round.
func (c *Collector) GCStarted(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.gc.set(1, at)
	c.gcSeen = true
}

// GCFinished marks the end of a GC round, crediting the busy interval.
func (c *Collector) GCFinished(at sim.Time) {
	if c == nil || c.gc.value == 0 {
		return
	}
	c.touch(at)
	c.gc.set(0, at)
}

// GCCopied counts one valid-page copy during collection.
func (c *Collector) GCCopied(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.gcCopies.Add(at, 1)
	c.gcSeen = true
}

// GrantWait records one resolved Omnibus grant arbitration: the wait
// interval [from, to) is integrated across windows and the grant is
// counted in the window where it resolved. Zero-wait grants still
// count.
func (c *Collector) GrantWait(from, to sim.Time) {
	if c == nil {
		return
	}
	c.touch(to)
	c.grantWait.Spread(from, to, 1)
	c.grantCount.Add(to, 1)
	c.grantSeen = true
}

// Event counts one instant of the named class (RAS/fault events:
// "program-fail", "grant-drop", "write-stall", ...).
func (c *Collector) Event(class string, at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	acc := c.events[class]
	if acc == nil {
		acc = sim.NewUtilRecorder(c.window)
		c.events[class] = acc
	}
	acc.Add(at, 1)
}

// RegisterTenants declares the tenant names, in display order, before
// any TenantDepth calls.
func (c *Collector) RegisterTenants(names []string) {
	if c == nil {
		return
	}
	for _, n := range names {
		c.tenants = append(c.tenants, n)
		c.qdepth = append(c.qdepth, level{acc: sim.NewUtilRecorder(c.window)})
	}
}

// TenantDepth records a change of one tenant's submission-queue depth.
// Calls must be time-ordered (they come from inside the simulation).
func (c *Collector) TenantDepth(name string, depth int, at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	for i, n := range c.tenants {
		if n == name {
			c.qdepth[i].set(int64(depth), at)
			return
		}
	}
}

// EnableMapPhase declares that a map unit is attached to this run, so
// summaries emit the map series and PhaseMap rows even if a window
// records no activity. Wired once at device construction; never called
// in flat mode.
func (c *Collector) EnableMapPhase() {
	if c == nil {
		return
	}
	c.mapSeen = true
}

// MapHit counts one map-cache lookup hit.
func (c *Collector) MapHit(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.mapHits.Add(at, 1)
	c.mapSeen = true
}

// MapMiss counts one map-cache lookup miss (including coalesced joins
// onto an already in-flight fetch).
func (c *Collector) MapMiss(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.mapMisses.Add(at, 1)
	c.mapSeen = true
}

// RebuildPage counts one array stripe page rebuilt onto a spare.
func (c *Collector) RebuildPage(at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.rebuilt.Add(at, 1)
	c.rebuildSeen = true
}

// AddMark records a named instant surfaced verbatim in the summary
// (rebuild detection, rebuild completion, ...).
func (c *Collector) AddMark(name string, at sim.Time) {
	if c == nil {
		return
	}
	c.touch(at)
	c.marks = append(c.marks, Mark{Name: name, AtUs: at.Microseconds()})
}

// Requests returns the number of attributed requests finished so far.
func (c *Collector) Requests() int64 {
	if c == nil {
		return 0
	}
	return c.requests
}

// AttributionViolations returns how many finished requests had phase
// durations that did not sum exactly to their end-to-end latency.
// The invariant test asserts this stays zero on real runs.
func (c *Collector) AttributionViolations() int64 {
	if c == nil {
		return 0
	}
	return c.attViolated
}
