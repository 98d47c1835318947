package sim

import (
	"fmt"
	"strings"
	"testing"
)

// goldenRun executes a scripted mixed workload — bare events, timed holds
// on two contended resources, manual acquire/release pairs, nested
// scheduling, and a RunUntil cut — and serializes the exact firing order
// as "id@time" tokens. The script is driven by an inline LCG so it never
// depends on math/rand internals.
func goldenRun() string {
	e := NewEngine()
	var sb strings.Builder
	rec := func(id string, arg int) { fmt.Fprintf(&sb, "%s%d@%d;", id, arg, int64(e.Now())) }

	lcg := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return (lcg >> 33) % n
	}

	rA := NewResource(e, "A")
	rB := NewResource(e, "B")
	for i := 0; i < 48; i++ {
		i := i
		switch next(5) {
		case 0:
			e.Schedule(Time(next(60)), func() { rec("t", i) })
		case 1:
			rA.Use(Time(next(25)), func() { rec("a", i) })
		case 2:
			rB.UseLabeled("xfer", Time(next(25)), func() { rec("b", i) })
		case 3:
			rA.AcquireLabeled("manual", func() {
				rec("g", i)
				e.Schedule(Time(next(15)), func() {
					rA.Release()
					rec("r", i)
				})
			})
		case 4:
			// Timed hold with no completion callback, mixed in so the
			// done==nil path is part of the golden ordering too.
			rB.Use(Time(next(10)), nil)
		}
	}
	e.Schedule(5, func() {
		rec("n", 0)
		e.Schedule(0, func() { rec("n", 1) })
		e.Schedule(7, func() { rec("n", 2) })
	})
	n := e.RunUntil(90)
	rec("cut", int(n))
	e.Run()
	fmt.Fprintf(&sb, "fired=%d now=%d busyA=%d busyB=%d waitA=%d waitB=%d",
		e.EventsFired(), int64(e.Now()),
		int64(rA.TotalBusy()), int64(rB.TotalBusy()),
		int64(rA.TotalWait()), int64(rB.TotalWait()))
	return sb.String()
}

// TestEngineGoldenSequence pins the engine's event ordering bit-for-bit.
// The golden string was captured from the container/heap implementation;
// any scheduler change that reorders events — even among same-instant
// events — breaks every downstream experiment's reproducibility and must
// fail here first.
func TestEngineGoldenSequence(t *testing.T) {
	got := goldenRun()
	if got != goldenWant {
		t.Fatalf("event sequence diverged from golden:\n got: %s\nwant: %s", got, goldenWant)
	}
}

const goldenWant = "n0@5;n1@5;t42@6;t21@9;a2@12;n2@12;t38@14;t12@19;t26@19;t23@21;t30@24;b3@26;a4@29;g9@29;r9@34;g10@34;r10@34;t28@37;a11@38;g13@38;t35@39;r13@40;a16@40;g20@40;t5@48;b6@48;r20@52;g22@52;r22@54;t15@56;b7@58;a25@65;b8@77;a27@78;g29@78;r29@84;b14@85;b17@88;a37@89;g40@89;cut58@90;b18@91;b19@97;r40@101;b31@106;a45@124;a46@124;b43@156;b47@177;fired=88 now=177 busyA=124 busyB=177 waitA=874 waitB=1833"
