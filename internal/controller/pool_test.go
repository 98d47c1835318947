package controller

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/sim"
)

// pageCursor hands out a chip's erased pages in program order.
type pageCursor struct{ i int }

func (p *pageCursor) next() flash.PPA {
	geo := testGeo()
	i := p.i
	p.i++
	return flash.PPA{
		Plane: i / (geo.PagesPerBlock * geo.BlocksPerPlane),
		Block: i / geo.PagesPerBlock % geo.BlocksPerPlane,
		Page:  i % geo.PagesPerBlock,
	}
}

// Once warmed up, every pooled data-path operation runs from issue to
// done without a heap allocation: each stage is a method value bound on
// a recycled record, never a fresh closure.
func TestDataPathSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	const pageSize = 16384
	src, dst := ChipID{0, 0}, ChipID{1, 0}
	from := flash.PPA{Plane: 0, Block: 0, Page: 0}
	type rig struct {
		e    *sim.Engine
		g    *Grid
		soc  *Soc
		done func()
	}
	// Each case returns the operation to repeat. Writes take a fresh
	// erased page of dst each time; reads and copies read from.
	cases := []struct {
		name string
		op   func(r rig) func()
	}{
		{"Chip.Read", func(r rig) func() {
			c := r.g.Chip(src)
			ppas := []flash.PPA{from}
			return func() { c.Read(ppas, r.done) }
		}},
		{"Chip.Program", func(r rig) func() {
			c, cur := r.g.Chip(dst), &pageCursor{}
			ops := make([]flash.ProgramOp, 1)
			return func() {
				ops[0] = flash.ProgramOp{Addr: cur.next(), Token: 7}
				c.Program(ops, r.done)
			}
		}},
		{"Chip.Erase", func(r rig) func() {
			c := r.g.Chip(dst)
			blocks := []flash.PPA{{Plane: 1, Block: 2}}
			return func() { c.Erase(blocks, r.done) }
		}},
		{"Soc.Transfer", func(r rig) func() {
			return func() { r.soc.Transfer(pageSize, r.done) }
		}},
		{"BusFabric.Read", func(r rig) func() {
			f := NewBusFabric(r.e, "pssd", r.g, r.soc, pageSize, 16, 1000, true)
			ppas := []flash.PPA{from}
			return func() { f.Read(src, ppas, r.done) }
		}},
		{"BusFabric.Write", func(r rig) func() {
			f, cur := NewBusFabric(r.e, "pssd", r.g, r.soc, pageSize, 16, 1000, true), &pageCursor{}
			ops := make([]flash.ProgramOp, 1)
			return func() {
				ops[0] = flash.ProgramOp{Addr: cur.next(), Token: 7}
				f.Write(dst, ops, r.done)
			}
		}},
		{"BusFabric.Copy", func(r rig) func() {
			f, cur := NewBusFabric(r.e, "pssd", r.g, r.soc, pageSize, 16, 1000, true), &pageCursor{}
			return func() { f.Copy(src, from, dst, cur.next(), r.done) }
		}},
		{"OmnibusFabric.Read", func(r rig) func() {
			f := NewOmnibusFabric(r.e, "pnssd", r.g, r.soc, pageSize, 8, 1000, false)
			ppas := []flash.PPA{from}
			return func() { f.Read(src, ppas, r.done) }
		}},
		{"OmnibusFabric.Write", func(r rig) func() {
			f, cur := NewOmnibusFabric(r.e, "pnssd", r.g, r.soc, pageSize, 8, 1000, false), &pageCursor{}
			ops := make([]flash.ProgramOp, 1)
			return func() {
				ops[0] = flash.ProgramOp{Addr: cur.next(), Token: 7}
				f.Write(dst, ops, r.done)
			}
		}},
		{"OmnibusFabric.Copy", func(r rig) func() {
			f, cur := NewOmnibusFabric(r.e, "pnssd", r.g, r.soc, pageSize, 8, 1000, false), &pageCursor{}
			return func() { f.Copy(src, from, dst, cur.next(), r.done) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, g, soc := testRig(2, 2)
			g.Chip(src).InstallPage(from, 0xC0FFEE)
			completed := 0
			op := tc.op(rig{e: e, g: g, soc: soc, done: func() { completed++ }})
			run := func() {
				op()
				e.Run()
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("%v allocations per operation, want 0", allocs)
			}
			if completed != 104 {
				t.Errorf("%d operations completed, want 104", completed)
			}
		})
	}
}

// A done that issues the next operation on the same fabric and chips
// from inside its callback reuses the record the finished operation just
// gave back, and the chain still moves the right tokens: write, read
// back, copy to another chip, write again from inside the copy's done.
func TestPooledRecordReuseFromDone(t *testing.T) {
	for _, arch := range []string{"bus", "omnibus", "omnibus+split"} {
		t.Run(arch, func(t *testing.T) {
			e, g, soc := testRig(2, 2)
			var f Fabric
			var idle func() int // records on the fabric's free list
			switch arch {
			case "bus":
				bf := NewBusFabric(e, "pssd", g, soc, 16384, 16, 1000, true)
				f, idle = bf, bf.ops.Len
			default:
				of := NewOmnibusFabric(e, "pnssd", g, soc, 16384, 8, 1000, arch == "omnibus+split")
				f, idle = of, of.ops.Len
			}
			// Same column, so the Omnibus copy takes the direct v-channel
			// path; the bus fabric relays it through DRAM.
			a, b := ChipID{0, 0}, ChipID{1, 0}
			p0, p1, p2 := flash.PPA{Plane: 0, Block: 1, Page: 0}, flash.PPA{Plane: 2, Block: 3, Page: 0}, flash.PPA{Plane: 0, Block: 1, Page: 1}
			var steps []string
			f.Write(a, []flash.ProgramOp{{Addr: p0, Token: 0xAB}}, func() {
				steps = append(steps, "write")
				f.Read(a, []flash.PPA{p0}, func() {
					steps = append(steps, "read")
					if got := g.Chip(a).PageRegister(p0.Plane); got != 0xAB {
						t.Errorf("read back %#x, want 0xAB", got)
					}
					f.Copy(a, p0, b, p1, func() {
						steps = append(steps, "copy")
						if got := g.Chip(b).ContentAt(p1); got != 0xAB {
							t.Errorf("copy landed %#x, want 0xAB", got)
						}
						f.Write(a, []flash.ProgramOp{{Addr: p2, Token: 0xCD}}, func() { steps = append(steps, "write2") })
					})
				})
			})
			e.Run()
			if len(steps) != 4 {
				t.Fatalf("chain stopped after %v", steps)
			}
			if got := g.Chip(a).ContentAt(p2); got != 0xCD {
				t.Fatalf("second write stored %#x, want 0xCD", got)
			}
			if g.Chip(b).VPagesHeld() != 0 {
				t.Fatal("copy leaked a V-page register")
			}
			if idle() != 1 {
				t.Fatalf("a strictly sequential chain built %d records, want 1", idle())
			}
		})
	}
}
