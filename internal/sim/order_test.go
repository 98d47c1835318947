package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the reference the engine's three event stores are checked
// against: one slice kept sorted by (at, seq), with the engine's
// documented run-loop contracts written out naively.
type refQueue struct {
	now Time
	seq int64
	evs []event
}

func (q *refQueue) Now() Time    { return q.now }
func (q *refQueue) Pending() int { return len(q.evs) }

func (q *refQueue) At(t Time, fn func()) {
	if t < q.now {
		panic("refQueue: schedule into the past")
	}
	q.seq++
	ev := event{at: t, seq: q.seq, fn: fn}
	i := sort.Search(len(q.evs), func(i int) bool {
		o := q.evs[i]
		return ev.at < o.at || (ev.at == o.at && ev.seq < o.seq)
	})
	q.evs = append(q.evs, event{})
	copy(q.evs[i+1:], q.evs[i:])
	q.evs[i] = ev
}

func (q *refQueue) step() {
	ev := q.evs[0]
	q.evs = q.evs[1:]
	q.now = ev.at
	ev.fn()
}

func (q *refQueue) Run() Time {
	for len(q.evs) > 0 {
		q.step()
	}
	return q.now
}

func (q *refQueue) RunUntil(deadline Time) int64 {
	var n int64
	for len(q.evs) > 0 && q.evs[0].at <= deadline {
		q.step()
		n++
	}
	if q.now < deadline {
		q.now = deadline
	}
	return n
}

func (q *refQueue) Step() bool {
	if len(q.evs) == 0 {
		return false
	}
	q.step()
	return true
}

// orderQueue is the surface the differential script drives; both
// *Engine and *refQueue implement it.
type orderQueue interface {
	Now() Time
	Pending() int
	At(t Time, fn func())
	Run() Time
	RunUntil(deadline Time) int64
	Step() bool
}

// orderScript drives q through a seeded random schedule and returns one
// log line per fired event and per run-loop call. Events are scheduled
// from outside between run-loop calls and from inside firing events, at a
// mix of times: the current instant, in order after every time
// scheduled so far, a short hop (usually out of order), and the far
// future. Times are small integers so that ties across stores are
// common. The script consumes its RNG in firing order, so two queues
// that fire identically produce identical logs, and the first
// divergence shows up as the first differing line.
func orderScript(q orderQueue, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var maxAt Time
	id := 0

	var schedule func()
	schedule = func() {
		var t Time
		switch rng.Intn(4) {
		case 0:
			t = q.Now()
		case 1:
			if maxAt < q.Now() {
				maxAt = q.Now()
			}
			t = maxAt + Time(rng.Intn(4))
		case 2:
			t = q.Now() + Time(1+rng.Intn(20))
		default:
			t = q.Now() + Time(500+rng.Intn(2000))
		}
		if t > maxAt {
			maxAt = t
		}
		id++
		me := id
		q.At(t, func() {
			log = append(log, fmt.Sprintf("fire %d@%d", me, q.Now()))
			// Under one child per event on average, so every run ends.
			switch r := rng.Intn(20); {
			case r < 9:
				schedule()
			case r < 10:
				schedule()
				schedule()
			}
		})
	}

	for i := 0; i < 40; i++ {
		schedule()
	}
	for call := 0; call < 400; call++ {
		for k := rng.Intn(4); k > 0; k-- {
			schedule()
		}
		var res string
		switch rng.Intn(3) {
		case 0:
			res = fmt.Sprintf("Step %v", q.Step())
		case 1:
			d := q.Now() + Time(rng.Intn(60)) - 5
			res = fmt.Sprintf("RunUntil(%d) %d", d, q.RunUntil(d))
		default:
			if rng.Intn(10) == 0 {
				res = fmt.Sprintf("Run %d", q.Run())
			} else {
				res = fmt.Sprintf("Step %v", q.Step())
			}
		}
		log = append(log, fmt.Sprintf("%s now=%d pending=%d", res, q.Now(), q.Pending()))
	}
	log = append(log, fmt.Sprintf("Run %d pending=%d", q.Run(), q.Pending()))
	return log
}

// TestEngineOrderMatchesReference: across seeded random schedules, the
// engine's nowQ, late and heap stores fire the same events in the same
// order as a single queue sorted by (at, seq), and every run-loop call
// returns the same count and leaves the same Now() and Pending().
func TestEngineOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		e := NewEngine()
		got := orderScript(e, seed)
		want := orderScript(&refQueue{}, seed)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d line %d: engine %q, reference %q", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine logged %d lines, reference %d", seed, len(got), len(want))
		}
		if e.fired < 1000 {
			t.Fatalf("seed %d fired only %d events; the script should exercise more", seed, e.fired)
		}
	}
}
