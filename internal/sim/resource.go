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
	util        *UtilRecorder
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
// occupancy and queue, the hook the tracing subsystem attaches to. All
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

// SetUtilRecorder attaches a windowed utilization recorder; every busy
// interval is reported to it. A nil recorder detaches.
func (r *Resource) SetUtilRecorder(u *UtilRecorder) { r.util = u }

// SetObserver attaches a hold/queue observer; nil detaches. With no
// observer attached the accounting paths are unchanged, so runs with
// tracing disabled are bit-identical to runs before observers existed.
func (r *Resource) SetObserver(o ResourceObserver) { r.obs = o }

// AddObserver attaches an additional observer alongside any already
// installed, fanning callbacks out to both in installation order. This
// lets tracing and invariant checking watch the same resource without
// either knowing about the other.
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
	if r.util != nil {
		r.util.AddBusy(r.busySince, r.eng.Now())
	}
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

// UtilRecorder accumulates busy time into fixed-width windows, producing the
// per-channel utilization time series behind the paper's Fig 3 heatmap.
type UtilRecorder struct {
	window  Time
	busyPer []Time
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

// AddBusy credits the interval [from, to) across the windows it overlaps.
func (u *UtilRecorder) AddBusy(from, to Time) {
	if to < from {
		panic("sim: inverted busy interval")
	}
	if from == to {
		return
	}
	// Grow straight to the interval's last window instead of one window
	// per loop iteration: an interval far past the recorded range costs
	// one append, not O(gap) reallocating appends.
	if last := int((to - 1) / u.window); last >= len(u.busyPer) {
		u.busyPer = append(u.busyPer, make([]Time, last+1-len(u.busyPer))...)
	}
	for from < to {
		w := int(from / u.window)
		end := Time(w+1) * u.window
		if end > to {
			end = to
		}
		u.busyPer[w] += end - from
		from = end
	}
}

// Series returns per-window utilization in [0,1], one entry per window from
// time zero through the last busy interval recorded.
func (u *UtilRecorder) Series() []float64 {
	out := make([]float64, len(u.busyPer))
	for i, b := range u.busyPer {
		out[i] = float64(b) / float64(u.window)
	}
	return out
}
