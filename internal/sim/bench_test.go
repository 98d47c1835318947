package sim

import "testing"

// BenchmarkEngineSchedule measures the raw push/pop cost of the event
// queue: a self-rescheduling event chain that keeps the queue warm
// without growing it.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(1, tick)
	e.Run()
	if n != b.N {
		b.Fatalf("fired %d events, want %d", n, b.N)
	}
}

// BenchmarkResourceHold measures the timed-hold fast path: Use on an
// idle resource, grant, release. After warm-up it must run at 0
// allocs/op — the grant/release steps are pre-bound method values and
// the hold parameters ride in resource fields, never in closures.
func BenchmarkResourceHold(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "ch")
	for i := 0; i < 8; i++ {
		r.Use(10, nil) // warm the event and waiter storage
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Use(10, nil)
		e.Run()
	}
}

// BenchmarkResourceHoldContended is the same path with a standing queue:
// four holds outstanding per iteration, so every release grants a waiter.
func BenchmarkResourceHoldContended(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "ch")
	for i := 0; i < 8; i++ {
		r.Use(10, nil)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Use(7, nil)
		r.Use(5, nil)
		r.Use(3, nil)
		r.Use(2, nil)
		e.Run()
	}
}

// BenchmarkEngineOpenLoop is the open-loop trace shape without the SSD:
// 60k arrivals queued up front in time order, each issuing a timed hold
// on one of 64 resources picked by an inline LCG. Arrivals ride the late
// lane, grant steps the same-instant lane and releases the heap. One op
// is one full run; every run replays the same schedule, so after the
// warm-up run sizes the event and waiter storage it allocates nothing.
func BenchmarkEngineOpenLoop(b *testing.B) {
	const (
		arrivals = 60_000
		nres     = 64
		gap      = Nanosecond
		hold     = 48 * Nanosecond // 75% mean utilization per resource
	)
	e := NewEngine()
	var res [nres]*Resource
	for i := range res {
		res[i] = NewResource(e, "r")
	}
	var lcg uint64
	arrive := func() {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		res[lcg>>58].Use(hold, nil)
	}
	run := func() {
		lcg = 1
		start := e.Now()
		for i := 1; i <= arrivals; i++ {
			e.At(start+Time(i)*gap, arrive)
		}
		e.Run()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	before := e.EventsFired()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if n := e.EventsFired() - before; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
	}
}

// BenchmarkUtilRecorderSparse records busy intervals far apart in time,
// then a weighted interval and a count between them. The recorder grows
// straight to the target window in one append, so sparse traffic does
// not reallocate once per empty window in between.
func BenchmarkUtilRecorderSparse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := NewUtilRecorder(Microsecond)
		// One early interval, then one 50 ms later: ~50k empty windows
		// crossed in a single growth step.
		u.Spread(0, Microsecond, 1)
		u.Spread(50*Millisecond, 50*Millisecond+Microsecond, 1)
		u.Spread(20*Millisecond, 20*Millisecond+Microsecond, 4)
		u.Add(30*Millisecond, 1)
	}
}
