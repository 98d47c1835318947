package sim

// Resource is a unit-capacity server with FIFO admission. It models any
// hardware element that serves one occupant at a time: a bus channel, a
// flash die, a DRAM port. Holders acquire the resource, are called back when
// granted, and must release it when done.
//
// Grant callbacks run as fresh events (never re-entrantly inside Acquire or
// Release), so model code can treat them as happening "next".
type Resource struct {
	eng  *Engine
	name string
	busy bool

	// waiters[head:] are the queued requests in FIFO order; Release
	// takes the head by index, as eventFIFO does (engine.go).
	waiters []grantReq
	head    int

	// accounting
	busySince   Time
	totalBusy   Time
	totalGrants int64
	totalWait   Time
	maxWait     Time
	obs         ResourceObserver
	curLabel    string
	curQueued   Time

	// Timed-hold fast path: Use/UseLabeled holds are granted through the
	// two method values below (bound once at construction) instead of
	// per-hold closures, so the common "occupy a bus for a serialization
	// time" pattern schedules zero heap allocations. The duration and
	// completion callback of the hold currently in flight live in curDur
	// and curDone; unit capacity guarantees at most one timed hold is
	// active at a time, so one slot suffices. Queued timed holds carry
	// their duration/callback in their grantReq until granted.
	curDur    Time
	curDone   func()
	grantStep func() // bound r.timedGrantStep
	relStep   func() // bound r.timedReleaseStep
}

// ResourceObserver receives passive notifications about a resource's
// occupancy and queue. It is the resource's one observation hook: the
// trace recorder, the invariant checker and the Fig 3 utilization
// recorders all attach through AddObserver. All
// callbacks fire synchronously inside Acquire/Release; implementations
// must only record — scheduling events or touching model state from an
// observer would perturb the simulation it is observing.
type ResourceObserver interface {
	// ResourceHold reports one completed hold: the holder enqueued at
	// queuedAt, was granted at grantedAt (equal to queuedAt for immediate
	// grants), and released at releasedAt.
	ResourceHold(r *Resource, label string, queuedAt, grantedAt, releasedAt Time)
	// ResourceQueue reports the waiter-queue depth after it changed.
	ResourceQueue(r *Resource, depth int, at Time)
}

type grantReq struct {
	fn    func()
	at    Time
	label string
	// timed marks a Use/UseLabeled hold: fn is nil and the hold runs for
	// dur, then releases and calls done (which may be nil).
	timed bool
	dur   Time
	done  func()
}

// DefaultHoldLabel names holds acquired without an explicit label.
const DefaultHoldLabel = "hold"

// NewResource creates an idle resource attached to the engine. The name is
// used only for diagnostics.
func NewResource(eng *Engine, name string) *Resource {
	r := &Resource{eng: eng, name: name}
	r.grantStep = r.timedGrantStep
	r.relStep = r.timedReleaseStep
	return r
}

// Name returns the diagnostic name supplied at construction.
func (r *Resource) Name() string { return r.name }

// AddObserver attaches an observer alongside any already installed,
// fanning callbacks out to all of them in installation order. This lets
// tracing and invariant checking watch the same resource without either
// knowing about the other. With no observer attached the accounting
// paths are unchanged, so unobserved runs are bit-identical to observed
// ones.
func (r *Resource) AddObserver(o ResourceObserver) {
	if o == nil {
		return
	}
	if r.obs == nil {
		r.obs = o
		return
	}
	r.obs = teeObserver{a: r.obs, b: o}
}

// teeObserver fans observer callbacks out to two observers.
type teeObserver struct {
	a, b ResourceObserver
}

func (t teeObserver) ResourceHold(r *Resource, label string, queuedAt, grantedAt, releasedAt Time) {
	t.a.ResourceHold(r, label, queuedAt, grantedAt, releasedAt)
	t.b.ResourceHold(r, label, queuedAt, grantedAt, releasedAt)
}

func (t teeObserver) ResourceQueue(r *Resource, depth int, at Time) {
	t.a.ResourceQueue(r, depth, at)
	t.b.ResourceQueue(r, depth, at)
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of waiters not yet granted.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.head }

// Acquire requests the resource. When granted, fn runs as its own event; the
// holder must eventually call Release.
func (r *Resource) Acquire(fn func()) { r.AcquireLabeled(DefaultHoldLabel, fn) }

// AcquireLabeled is Acquire with a label naming the hold for observers
// (e.g. "read-xfer" on a bus, "program" on a die). Labels should be
// constant strings; they are carried by value and never retained.
func (r *Resource) AcquireLabeled(label string, fn func()) {
	if fn == nil {
		panic("sim: nil acquire callback for " + r.name)
	}
	if !r.busy {
		r.grant(grantReq{fn: fn, at: r.eng.Now(), label: label})
		return
	}
	r.waiters = append(r.waiters, grantReq{fn: fn, at: r.eng.Now(), label: label})
	if r.obs != nil {
		r.obs.ResourceQueue(r, r.QueueLen(), r.eng.Now())
	}
}

// TryAcquire acquires the resource only if it is idle and has no waiters,
// reporting success. On success fn is scheduled exactly as with Acquire.
func (r *Resource) TryAcquire(fn func()) bool {
	if r.busy || r.QueueLen() > 0 {
		return false
	}
	r.grant(grantReq{fn: fn, at: r.eng.Now(), label: DefaultHoldLabel})
	return true
}

func (r *Resource) grant(req grantReq) {
	r.busy = true
	r.busySince = r.eng.Now()
	r.curLabel = req.label
	r.curQueued = req.at
	r.totalGrants++
	if req.timed {
		r.curDur = req.dur
		r.curDone = req.done
		r.eng.Schedule(0, r.grantStep)
		return
	}
	r.eng.Schedule(0, req.fn)
}

// timedGrantStep is the grant event of a timed hold: it runs at the grant
// instant and schedules the release, exactly as the closure pair in
// UseLabeled used to — same event count, same seq consumption, so runs
// are bit-identical to the closure-based implementation.
func (r *Resource) timedGrantStep() {
	r.eng.Schedule(r.curDur, r.relStep)
}

// timedReleaseStep releases a timed hold and runs its completion
// callback. curDone is read before Release because Release may grant the
// next queued timed hold, which overwrites the slot.
func (r *Resource) timedReleaseStep() {
	done := r.curDone
	r.curDone = nil
	r.Release()
	if done != nil {
		done()
	}
}

// Release frees the resource and grants it to the next FIFO waiter, if any.
func (r *Resource) Release() {
	if !r.busy {
		panic("sim: release of idle resource " + r.name)
	}
	held := r.eng.Now() - r.busySince
	r.totalBusy += held
	if r.obs != nil {
		r.obs.ResourceHold(r, r.curLabel, r.curQueued, r.busySince, r.eng.Now())
	}
	r.busy = false
	if r.QueueLen() > 0 {
		next := r.popWaiter()
		wait := r.eng.Now() - next.at
		r.totalWait += wait
		if wait > r.maxWait {
			r.maxWait = wait
		}
		if r.obs != nil {
			r.obs.ResourceQueue(r, r.QueueLen(), r.eng.Now())
		}
		r.grant(next)
	}
}

// popWaiter removes and returns the head waiter. Its slot is zeroed at
// once so the callback it held can be collected, and once the consumed
// prefix is at least half the slice the live waiters move to the front
// and the slots they vacated are cleared, so the backing array is reused
// without growing while the queue stays shallow.
func (r *Resource) popWaiter() grantReq {
	next := r.waiters[r.head]
	r.waiters[r.head] = grantReq{}
	r.head++
	if n := len(r.waiters); r.head == n {
		r.waiters, r.head = r.waiters[:0], 0
	} else if 2*r.head >= n {
		live := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[live:])
		r.waiters, r.head = r.waiters[:live], 0
	}
	return next
}

// Use acquires the resource, holds it for d, then releases it and runs done
// (which may be nil). It is the common "occupy a bus for a serialization
// time" helper.
func (r *Resource) Use(d Time, done func()) { r.UseLabeled(DefaultHoldLabel, d, done) }

// UseLabeled is Use with an observer label for the hold. It is the
// engine's hottest path — every bus transfer and flash operation passes
// through it — so it is allocation-free: instead of building a
// grant-then-release closure pair per hold, the hold's duration and done
// callback ride in the grant request and fire through per-resource
// method values bound once at construction.
func (r *Resource) UseLabeled(label string, d Time, done func()) {
	if d < 0 {
		panic("sim: negative hold duration for " + r.name)
	}
	if !r.busy {
		r.grant(grantReq{at: r.eng.Now(), label: label, timed: true, dur: d, done: done})
		return
	}
	r.waiters = append(r.waiters, grantReq{at: r.eng.Now(), label: label, timed: true, dur: d, done: done})
	if r.obs != nil {
		r.obs.ResourceQueue(r, r.QueueLen(), r.eng.Now())
	}
}

// TotalBusy returns cumulative held time over completed holds.
func (r *Resource) TotalBusy() Time { return r.totalBusy }

// TotalGrants returns the number of grants issued.
func (r *Resource) TotalGrants() int64 { return r.totalGrants }

// TotalWait returns the cumulative time grantees spent queued before
// receiving the resource; immediate grants contribute zero.
func (r *Resource) TotalWait() Time { return r.totalWait }

// MaxWait returns the longest single queueing delay observed.
func (r *Resource) MaxWait() Time { return r.maxWait }

// MeanWait returns the average queueing delay over all grants.
func (r *Resource) MeanWait() Time {
	if r.totalGrants == 0 {
		return 0
	}
	return r.totalWait / Time(r.totalGrants)
}

// Utilization returns TotalBusy divided by the elapsed time since zero.
func (r *Resource) Utilization() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	return float64(r.totalBusy) / float64(r.eng.Now())
}

// DefaultWindow is the width of every fixed-window series in the
// simulator: the trace utilization timelines, the telemetry series and
// the Fig 3 channel heatmaps, which use the paper's 500 us windows.
const DefaultWindow = 500 * Microsecond

// UtilRecorder sums quantities into fixed-width windows of simulated
// time. It is the simulator's one windowed accumulator: Spread splits an
// interval across the windows it overlaps (busy time, or a weighted
// level such as queue depth), Add counts at one instant (completions,
// bytes, events), and Values exports the sums. As a ResourceObserver it
// records a resource's busy time, the data behind the Fig 3 heatmaps.
type UtilRecorder struct {
	window Time
	sums   []int64
}

// NewUtilRecorder creates a recorder with the given window width.
func NewUtilRecorder(window Time) *UtilRecorder {
	if window <= 0 {
		panic("sim: non-positive utilization window")
	}
	return &UtilRecorder{window: window}
}

// Window returns the configured window width.
func (u *UtilRecorder) Window() Time { return u.window }

// Len returns the number of windows from time zero through the last one
// credited.
func (u *UtilRecorder) Len() int { return len(u.sums) }

// grow extends the sums through window w in a single append, so a
// credit far past the recorded range costs one growth step, not one
// reallocating append per empty window in between.
func (u *UtilRecorder) grow(w int) {
	if w >= len(u.sums) {
		u.sums = append(u.sums, make([]int64, w+1-len(u.sums))...)
	}
}

// Spread credits weight times the overlap of [from, to) to each window
// the interval overlaps. Weight 1 records busy time.
func (u *UtilRecorder) Spread(from, to Time, weight int64) {
	if to < from {
		panic("sim: inverted interval")
	}
	if from == to {
		return
	}
	u.grow(int((to - 1) / u.window))
	for from < to {
		w := int(from / u.window)
		end := min(Time(w+1)*u.window, to)
		u.sums[w] += int64(end-from) * weight
		from = end
	}
}

// Add credits v to the window containing at.
func (u *UtilRecorder) Add(at Time, v int64) {
	w := int(at / u.window)
	u.grow(w)
	u.sums[w] += v
}

// Clone returns an independent copy, so a caller can close open
// intervals for an export without changing the recorder.
func (u *UtilRecorder) Clone() *UtilRecorder {
	return &UtilRecorder{window: u.window, sums: append([]int64(nil), u.sums...)}
}

// Values returns the sums of the first n windows, each divided by scale;
// windows past the recorded range read zero. Scale float64(Window())
// turns busy time into utilization in [0,1].
func (u *UtilRecorder) Values(n int, scale float64) []float64 {
	out := make([]float64, n)
	for i, v := range u.sums[:min(n, len(u.sums))] {
		out[i] = float64(v) / scale
	}
	return out
}

// ResourceHold implements ResourceObserver: the hold's busy interval is
// spread across the windows it overlaps.
func (u *UtilRecorder) ResourceHold(_ *Resource, _ string, _, grantedAt, releasedAt Time) {
	u.Spread(grantedAt, releasedAt, 1)
}

// ResourceQueue implements ResourceObserver; queue depth is not recorded.
func (u *UtilRecorder) ResourceQueue(*Resource, int, Time) {}
