package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Use(10, func() { order = append(order, i) })
	}
	e.Run()
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50 (serialized holds)", e.Now())
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: order=%v", order)
		}
	}
	if r.TotalBusy() != 50 {
		t.Fatalf("TotalBusy = %v, want 50", r.TotalBusy())
	}
	if r.TotalGrants() != 5 {
		t.Fatalf("TotalGrants = %d, want 5", r.TotalGrants())
	}
}

func TestResourceAcquireRelease(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	var got []string
	r.Acquire(func() {
		got = append(got, "first")
		e.Schedule(100, func() { r.Release() })
	})
	r.Acquire(func() {
		got = append(got, "second")
		r.Release()
	})
	e.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got %v", got)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %v, want 100", e.Now())
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch")
	okFirst := r.TryAcquire(func() {})
	okSecond := r.TryAcquire(func() { t.Fatal("second TryAcquire callback ran") })
	if !okFirst || okSecond {
		t.Fatalf("TryAcquire = %v, %v; want true, false", okFirst, okSecond)
	}
	e.Run()
	r.Release()
	// With a waiter queued via Acquire, TryAcquire must also fail even if idle.
	r.Use(10, nil)
	e.Step() // grant the Use
	if r.TryAcquire(func() {}) {
		t.Fatal("TryAcquire succeeded on busy resource")
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceGrantNotReentrant(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	granted := false
	r.Acquire(func() { granted = true })
	if granted {
		t.Fatal("grant ran re-entrantly inside Acquire")
	}
	e.Run()
	if !granted {
		t.Fatal("grant never ran")
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch")
	r.Use(30, nil)
	e.Run()
	e.RunUntil(100)
	if got := r.Utilization(); got != 0.3 {
		t.Fatalf("Utilization = %v, want 0.3", got)
	}
}

func TestUtilRecorderWindows(t *testing.T) {
	u := NewUtilRecorder(10)
	u.Spread(5, 25, 1) // half of window 0, all of window 1, half of window 2
	want := []float64{0.5, 1.0, 0.5, 0}
	if got := u.Values(4, 10); !slices.Equal(got, want) || u.Len() != 3 {
		t.Fatalf("busy series = %v (len %d), want %v", got, u.Len(), want)
	}

	// Weighted: depth 3 over [0, 15) is 30 depth-units in w0, 15 in w1.
	d := NewUtilRecorder(10)
	d.Spread(0, 15, 3)
	if got := d.Values(2, 10); !slices.Equal(got, []float64{3, 1.5}) {
		t.Fatalf("mean depth = %v, want [3 1.5]", got)
	}

	// Counts land in the window of their instant; a window boundary
	// belongs to the later window.
	c := NewUtilRecorder(10)
	c.Add(0, 1)
	c.Add(9, 2)
	c.Add(10, 5)
	c.Add(35, 1)
	if got := c.Values(5, 1); !slices.Equal(got, []float64{3, 5, 0, 1, 0}) {
		t.Fatalf("counts = %v, want [3 5 0 1 0]", got)
	}
	if got := c.Values(1, 1); !slices.Equal(got, []float64{3}) {
		t.Fatalf("truncated counts = %v, want [3]", got)
	}

	// A clone is independent of its source.
	cl := c.Clone()
	cl.Add(0, 100)
	if c.Values(1, 1)[0] != 3 || cl.Values(1, 1)[0] != 103 {
		t.Fatal("Clone shares sums with its source")
	}
}

func TestUtilRecorderAttachedToResource(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "ch")
	u := NewUtilRecorder(100)
	r.AddObserver(u)
	r.Use(50, nil)  // [0,50)
	r.Use(100, nil) // [50,150)
	e.Run()
	if s := u.Values(u.Len(), 100); !slices.Equal(s, []float64{1.0, 0.5}) {
		t.Fatalf("series = %v, want [1 0.5]", s)
	}
}

// Property: with random hold durations the total busy time equals the sum of
// holds and the final clock equals that sum (single FIFO server).
func TestResourceSerializationProperty(t *testing.T) {
	prop := func(holds []uint8) bool {
		e := NewEngine()
		r := NewResource(e, "p")
		var sum Time
		for _, h := range holds {
			d := Time(h)
			sum += d
			r.Use(d, nil)
		}
		e.Run()
		return r.TotalBusy() == sum && e.Now() == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: UtilRecorder conserves what it is given — the sum over
// windows of a weighted interval equals weight times its length, and
// counts added at arbitrary instants sum to their total — for any window
// size, interval and instants.
func TestUtilRecorderConservationProperty(t *testing.T) {
	prop := func(winRaw, fromRaw, lenRaw uint16, weightRaw uint8, at []uint16) bool {
		win := Time(winRaw%500) + 1
		from := Time(fromRaw % 2000)
		length := Time(lenRaw % 2000)
		weight := int64(weightRaw%8) + 1
		u := NewUtilRecorder(win)
		u.Spread(from, from+length, weight)
		var total int64
		for _, v := range u.sums {
			total += v
		}
		if total != weight*int64(length) {
			return false
		}
		c := NewUtilRecorder(win)
		for i, a := range at {
			c.Add(Time(a), int64(i))
		}
		var count, want int64
		for _, v := range c.Values(c.Len(), 1) {
			count += int64(v)
		}
		for i := range at {
			want += int64(i)
		}
		return count == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Release takes the head waiter by index: a long standing queue is
// granted in FIFO order, each consumed slot is cleared at once so its
// callback can be collected, and the backing array compacts instead of
// growing while holds keep arriving.
func TestResourceWaiterQueueCompacts(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	var order []int
	next := 0
	var issue func()
	issue = func() {
		i := next
		next++
		if i < 1000 {
			r.Use(10, func() { order = append(order, i); issue() })
		}
	}
	for k := 0; k < 8; k++ {
		issue()
	}
	if r.QueueLen() != 7 {
		t.Fatalf("QueueLen = %d, want 7", r.QueueLen())
	}
	for e.Step() {
		for i := 0; i < r.head; i++ {
			if r.waiters[i].done != nil {
				t.Fatalf("consumed waiter slot %d still holds its callback", i)
			}
		}
		if cap(r.waiters) > 32 {
			t.Fatalf("waiter array grew to %d slots for at most 8 waiters", cap(r.waiters))
		}
	}
	if len(order) != 1000 {
		t.Fatalf("%d holds completed, want 1000", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("hold %d completed in position %d", v, i)
		}
	}
}
