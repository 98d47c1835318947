package ftl

import (
	"testing"
	"testing/quick"

	"repro/internal/controller"
	"repro/internal/flash"
)

func TestAllocatorCoversEverySlotOncePerCycle(t *testing.T) {
	for _, policy := range []AllocPolicy{PCWD, PWCD} {
		a := newAllocator(policy, 4, 3, 2)
		seen := make(map[slot]int)
		for i := 0; i < len(a.slots); i++ {
			s, ok := a.next(func(slot) bool { return true })
			if !ok {
				t.Fatalf("%v: allocator refused with universal filter", policy)
			}
			seen[s]++
		}
		if len(seen) != len(a.slots) {
			t.Fatalf("%v: %d distinct slots in one cycle, want %d", policy, len(seen), len(a.slots))
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("%v: slot %v visited %d times in one cycle", policy, s, n)
			}
		}
	}
}

func TestAllocatorPolicyOrder(t *testing.T) {
	// PCWD: plane varies fastest, then channel, then way.
	a := newAllocator(PCWD, 2, 2, 2)
	want := []slot{
		{controller.ChipID{Channel: 0, Way: 0}, 0},
		{controller.ChipID{Channel: 0, Way: 0}, 1},
		{controller.ChipID{Channel: 1, Way: 0}, 0},
		{controller.ChipID{Channel: 1, Way: 0}, 1},
		{controller.ChipID{Channel: 0, Way: 1}, 0},
		{controller.ChipID{Channel: 0, Way: 1}, 1},
		{controller.ChipID{Channel: 1, Way: 1}, 0},
		{controller.ChipID{Channel: 1, Way: 1}, 1},
	}
	for i, w := range want {
		s, ok := a.next(func(slot) bool { return true })
		if !ok || s != w {
			t.Fatalf("PCWD step %d = %v, want %v", i, s, w)
		}
	}
	// PWCD: plane, then way, then channel.
	b := newAllocator(PWCD, 2, 2, 2)
	wantB := []slot{
		{controller.ChipID{Channel: 0, Way: 0}, 0},
		{controller.ChipID{Channel: 0, Way: 0}, 1},
		{controller.ChipID{Channel: 0, Way: 1}, 0},
		{controller.ChipID{Channel: 0, Way: 1}, 1},
		{controller.ChipID{Channel: 1, Way: 0}, 0},
	}
	for i, w := range wantB {
		s, ok := b.next(func(slot) bool { return true })
		if !ok || s != w {
			t.Fatalf("PWCD step %d = %v, want %v", i, s, w)
		}
	}
}

func TestAllocatorFilterSkips(t *testing.T) {
	a := newAllocator(PCWD, 2, 2, 1)
	// Reject way 1 entirely: only two slots remain.
	got := make(map[slot]bool)
	for i := 0; i < 4; i++ {
		s, ok := a.next(func(s slot) bool { return s.chip.Way == 0 })
		if !ok {
			t.Fatal("allocator refused despite acceptable slots")
		}
		if s.chip.Way != 0 {
			t.Fatalf("filter violated: %v", s)
		}
		got[s] = true
	}
	if len(got) != 2 {
		t.Fatalf("distinct way-0 slots = %d, want 2", len(got))
	}
	// Reject everything: must return false, not loop forever.
	if _, ok := a.next(func(slot) bool { return false }); ok {
		t.Fatal("allocator satisfied an unsatisfiable filter")
	}
}

// Property: physIndex/physDecode are inverse for arbitrary geometry-valid
// locations.
func TestPhysIndexRoundTripProperty(t *testing.T) {
	geo := flash.Geometry{Planes: 4, BlocksPerPlane: 16, PagesPerBlock: 32, PageSize: 4096}
	const ways = 8
	prop := func(ch, w, pl, b, pg uint16) bool {
		id := controller.ChipID{Channel: int(ch % 8), Way: int(w % ways)}
		addr := flash.PPA{
			Plane: int(pl) % geo.Planes,
			Block: int(b) % geo.BlocksPerPlane,
			Page:  int(pg) % geo.PagesPerBlock,
		}
		gotID, gotAddr := physDecode(geo, ways, physIndex(geo, ways, id, addr))
		return gotID == id && gotAddr == addr
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: physIndex is injective over a full small device.
func TestPhysIndexInjective(t *testing.T) {
	geo := flash.Geometry{Planes: 2, BlocksPerPlane: 3, PagesPerBlock: 4, PageSize: 4096}
	const channels, ways = 2, 3
	seen := make(map[int64]bool)
	for ch := 0; ch < channels; ch++ {
		for w := 0; w < ways; w++ {
			for pl := 0; pl < geo.Planes; pl++ {
				for b := 0; b < geo.BlocksPerPlane; b++ {
					for pg := 0; pg < geo.PagesPerBlock; pg++ {
						phys := physIndex(geo, ways, controller.ChipID{Channel: ch, Way: w},
							flash.PPA{Plane: pl, Block: b, Page: pg})
						if seen[phys] {
							t.Fatalf("phys %d duplicated", phys)
						}
						seen[phys] = true
					}
				}
			}
		}
	}
	want := channels * ways * geo.PagesPerChip()
	if len(seen) != want {
		t.Fatalf("covered %d phys ids, want %d", len(seen), want)
	}
}

func TestPlaneStateGCAndHostStreamsIndependent(t *testing.T) {
	ps := newPlaneState(4, 4, new(int))
	hb, _, _ := ps.allocate()
	gb, _, _ := ps.allocateGC()
	if hb == gb {
		t.Fatal("host and GC streams share a block")
	}
	// Fill the host block; the GC block must be untouched.
	for i := 1; i < 4; i++ {
		b, p, err := ps.allocate()
		if err != nil {
			t.Fatalf("host allocation %d failed: %v", i, err)
		}
		if b != hb || p != i {
			t.Fatalf("host allocation %d = (%d,%d)", i, b, p)
		}
	}
	if ps.blocks[hb].state != BlockFull {
		t.Fatal("host block not full after 4 pages")
	}
	if ps.blocks[gb].state != BlockActive || !ps.gcOpen() {
		t.Fatal("GC block state disturbed by host stream")
	}
	// GC stream continues from page 1.
	if b, p, _ := ps.allocateGC(); b != gb || p != 1 {
		t.Fatalf("GC allocation = (%d,%d), want (%d,1)", b, p, gb)
	}
}
