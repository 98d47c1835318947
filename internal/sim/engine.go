// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer picoseconds so that the fastest modelled
// resources (a 16-bit flash channel moving two bytes per nanosecond, or a
// 2-bit mesh link moving one byte every four nanoseconds) divide evenly.
// Events scheduled for the same instant fire in scheduling order, which
// makes every simulation in this repository reproducible bit-for-bit.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns the time as a floating-point nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns the time as a floating-point microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns the time as a floating-point millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns the time as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "3.2us".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.2fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

type event struct {
	at  Time
	seq int64
	fn  func()
}

// before reports whether a must fire before b: earlier timestamp first,
// scheduling order (seq) breaking ties. seq is unique, so the order is a
// total order and every run replays identically.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap of concrete event values ordered by
// before. It replaces container/heap: no heap.Interface, no interface{}
// boxing on push/pop, and the arity-4 layout halves the tree depth so
// sift-down touches fewer cache lines per operation. The backing array is
// kept (and only grown) across Run loops, so a drained engine re-fills
// its queue without reallocating. It holds only the events that neither
// FIFO lane of the Engine can take.
type eventHeap []event

// push appends ev and sifts it up to its position.
func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// popMin removes and returns the earliest event. The vacated tail slot is
// zeroed so the callback closure becomes collectable immediately.
func (h *eventHeap) popMin() event {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = event{}
	s = s[:last]
	*h = s

	// Sift the relocated element down: find the smallest of up to four
	// children, swap if it precedes the parent.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		best := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if s[c].before(s[best]) {
				best = c
			}
		}
		if !s[best].before(s[i]) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return min
}

// eventFIFO is a queue of events that arrive already sorted by before,
// so pushing appends and popping takes the head: O(1) both ways. A
// consumed slot is zeroed at once so its closure becomes collectable.
// Once the consumed prefix is at least half the slice, the live events
// move to the front and the slots they vacated are cleared, so the
// backing array never holds stale copies and is reused without growing
// while the queue stays shallow.
type eventFIFO struct {
	buf  []event
	head int
}

func (q *eventFIFO) len() int { return len(q.buf) - q.head }

func (q *eventFIFO) push(ev event) { q.buf = append(q.buf, ev) }

// front returns the next event to pop; the queue must not be empty.
func (q *eventFIFO) front() *event { return &q.buf[q.head] }

// back returns the last event pushed; the queue must not be empty.
func (q *eventFIFO) back() *event { return &q.buf[len(q.buf)-1] }

func (q *eventFIFO) pop() event {
	ev := q.buf[q.head]
	q.buf[q.head] = event{}
	q.head++
	if n := len(q.buf); q.head == n {
		q.buf, q.head = q.buf[:0], 0
	} else if 2*q.head >= n {
		live := copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf, q.head = q.buf[:live], 0
	}
	return ev
}

// totalFired accumulates events executed across every engine in the
// process — the feed behind the runner package's -progress reporter.
// Engines publish in batches of firedFlushBatch events rather than per
// event (plus one unconditional flush when a full Run drains), so the
// runner's concurrent per-job engines cost one atomic add per ~8k events
// each and the hot step loop stays contention-free.
var totalFired atomic.Int64

// firedFlushBatch is the unpublished-event threshold at which an engine
// pushes its delta to totalFired. Large enough that engines running on
// many goroutines don't contend on the atomic; small enough that
// -progress never lags a live engine by more than a blink.
const firedFlushBatch = 8192

// EventsFiredTotal returns the process-wide number of events executed
// across all engines. Updated every firedFlushBatch events and at every
// full Run drain, so it lags an engine mid-drain by less than one batch;
// it is a progress signal, not an exact census.
func EventsFiredTotal() int64 { return totalFired.Load() }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all model code runs inside event callbacks. Distinct
// engines are independent: N goroutines may each drive their own engine
// concurrently (the runner's per-job engines) with no shared mutable
// state beyond the batched EventsFiredTotal counter.
type Engine struct {
	now Time
	seq int64
	// Pending events live in three stores, each sorted by (at, seq):
	// nowQ takes every event scheduled for the current instant, late
	// takes an event at or after its own tail (the open-loop arrivals
	// queued up front in time order), and heap takes everything else.
	// seq only grows, so appending keeps both lanes sorted, and step
	// fires the earliest of the three heads: the same global order a
	// single heap gives.
	nowQ  eventFIFO
	late  eventFIFO
	heap  eventHeap
	fired int64
	// counted is how much of fired has been published to totalFired.
	counted int64
	// highWater tracks the most events pending at once since the last
	// full drain; recentHW keeps the marks of the last few drained Runs
	// so the backing arrays can shrink once a big-config run is provably
	// over, not on the first quiet window after it.
	highWater int
	recentHW  [hwRuns]int
	hwIdx     int
}

// hwRuns is how many drained Runs of queue high-water history inform the
// shrink decision; minShrinkCap is the capacity below which shrinking is
// never worth a reallocation.
const (
	hwRuns       = 4
	minShrinkCap = 1024
)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// EventsFired returns the number of events executed so far.
func (e *Engine) EventsFired() int64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.nowQ.len() + e.late.len() + len(e.heap) }

// Schedule runs fn after delay d. A negative delay panics: the model has a
// causality bug and silently clamping it would hide the error.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at t=%v", d, e.now))
	}
	e.At(e.now+d, fn)
}

// At runs fn at absolute time t, which must not precede the current time.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule into the past: t=%v now=%v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	switch {
	case t == e.now:
		e.nowQ.push(ev)
	case e.late.len() == 0 || t >= e.late.back().at:
		e.late.push(ev)
	default:
		e.heap.push(ev)
	}
	if n := e.Pending(); n > e.highWater {
		e.highWater = n
	}
}

// Event stores, as reported by peek.
const (
	fromNone = iota
	fromNow
	fromLate
	fromHeap
)

// peek returns the next event to fire — the earliest of the three store
// heads under before — and the store holding it, or (nil, fromNone)
// when nothing is pending. The pointer is valid until the next push or
// pop.
func (e *Engine) peek() (*event, int) {
	var best *event
	from := fromNone
	if e.nowQ.len() > 0 {
		best, from = e.nowQ.front(), fromNow
	}
	if e.late.len() > 0 {
		if h := e.late.front(); best == nil || h.before(*best) {
			best, from = h, fromLate
		}
	}
	if len(e.heap) > 0 {
		if h := &e.heap[0]; best == nil || h.before(*best) {
			best, from = h, fromHeap
		}
	}
	return best, from
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for {
		_, from := e.peek()
		if from == fromNone {
			break
		}
		e.step(from)
	}
	// Publish whatever the batching threshold held back, so the census
	// is exact at every full drain.
	if d := e.fired - e.counted; d > 0 {
		totalFired.Add(d)
		e.counted = e.fired
	}
	e.noteDrained()
	return e.now
}

// noteDrained records the queue's high-water mark for the Run that just
// drained and shrinks each store's backing array whose capacity exceeds
// 4x the most events any of the last hwRuns Runs had pending. Big-config
// sweeps reuse one engine across many Runs; without this, a single
// deep-queue run pins its peak-size slices (and every event closure slot
// in them) for the engine's remaining lifetime.
func (e *Engine) noteDrained() {
	e.recentHW[e.hwIdx%hwRuns] = e.highWater
	e.hwIdx++
	need := 0
	for _, hw := range e.recentHW {
		if hw > need {
			need = hw
		}
	}
	e.nowQ.buf = shrunk(e.nowQ.buf, need)
	e.late.buf = shrunk(e.late.buf, need)
	e.heap = shrunk(e.heap, need)
	e.highWater = 0
}

// shrunk returns an empty slice of capacity 2*need in place of the empty
// slice s when s's capacity is worth reclaiming, and s otherwise.
func shrunk(s []event, need int) []event {
	if c := cap(s); c >= minShrinkCap && c > 4*need {
		return make([]event, 0, 2*need)
	}
	return s
}

// queueCap exposes the total backing capacity of the event stores to
// tests.
func (e *Engine) queueCap() int { return cap(e.nowQ.buf) + cap(e.late.buf) + cap(e.heap) }

// RunUntil executes every event with a timestamp <= deadline, including
// events those events schedule into the window, and returns the number of
// events fired. Events beyond the deadline remain queued. The clock
// contract: on return the clock is exactly max(now, deadline) — it
// advances to the deadline even if the last event fired earlier (or no
// event fired at all), and an event scheduled exactly at the deadline
// does fire. If the deadline precedes the current clock, nothing fires
// and the clock is unchanged. EventsFiredTotal publication rides the
// batching threshold (see EventsFiredTotal).
func (e *Engine) RunUntil(deadline Time) int64 {
	var n int64
	for {
		ev, from := e.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		e.step(from)
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// RunFor advances the clock by d, executing everything due in the window.
func (e *Engine) RunFor(d Time) int64 { return e.RunUntil(e.now + d) }

// Step executes exactly one event if any is pending, reporting whether one
// fired. Fired events feed EventsFiredTotal through the same batching
// threshold as the run loops, so a caller single-stepping an engine
// still surfaces progress.
func (e *Engine) Step() bool {
	_, from := e.peek()
	if from == fromNone {
		return false
	}
	e.step(from)
	return true
}

// step pops the head of store from, which peek reported as the next
// event, and fires it.
func (e *Engine) step(from int) {
	var ev event
	switch from {
	case fromNow:
		ev = e.nowQ.pop()
	case fromLate:
		ev = e.late.pop()
	default:
		ev = e.heap.popMin()
	}
	if ev.at < e.now {
		panic("sim: event queue corrupted")
	}
	e.now = ev.at
	e.fired++
	if e.fired-e.counted >= firedFlushBatch {
		totalFired.Add(e.fired - e.counted)
		e.counted = e.fired
	}
	ev.fn()
}
