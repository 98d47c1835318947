// Package flash models NAND flash memory chips: the die/plane/block/page
// geometry, array operation timing (tR, tPROG, tBERS), multi-plane
// commands, per-plane page registers, and the pnSSD additions — V-page
// registers and the on-die controller that decodes packets into internal
// control signals (Fig 7 of the paper).
//
// Page contents are modelled as 64-bit tokens rather than full 16 KB
// buffers, which lets every copy path (host write, controller-mediated GC
// copy, direct flash-to-flash v-channel copy) be verified end to end while
// keeping simulations of multi-million-page devices cheap.
package flash

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Geometry describes one chip. The paper's Table II uses 1 die, 4 planes,
// 1024 blocks per plane, 512 pages per block, 16 KB pages.
type Geometry struct {
	Planes         int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int // bytes
}

// Validate panics on a malformed geometry.
func (g Geometry) Validate() {
	if g.Planes <= 0 || g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		panic(fmt.Sprintf("flash: invalid geometry %+v", g))
	}
}

// PagesPerChip returns the total page count.
func (g Geometry) PagesPerChip() int {
	return g.Planes * g.BlocksPerPlane * g.PagesPerBlock
}

// CapacityBytes returns the chip capacity.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.PagesPerChip()) * int64(g.PageSize)
}

// Timing holds the array operation latencies. Table II uses the ULL
// parameters: read 3 us, program 50 us, erase 1 ms.
type Timing struct {
	Read    sim.Time
	Program sim.Time
	Erase   sim.Time
}

// ULLTiming returns the ultra-low-latency flash parameters from Table II.
func ULLTiming() Timing {
	return Timing{
		Read:    3 * sim.Microsecond,
		Program: 50 * sim.Microsecond,
		Erase:   sim.Millisecond,
	}
}

// PPA is a physical page address within one chip.
type PPA struct {
	Plane int
	Block int
	Page  int
}

// String formats the address.
func (a PPA) String() string { return fmt.Sprintf("p%d/b%d/pg%d", a.Plane, a.Block, a.Page) }

// PackRow encodes a PPA into the 24-bit row address carried by control
// packets: plane in the top bits, then block, then page.
func (g Geometry) PackRow(a PPA) uint32 {
	g.checkPPA(a)
	return uint32(a.Plane)<<20 | uint32(a.Block)<<9 | uint32(a.Page)
}

// UnpackRow decodes a 24-bit row address back into a PPA.
func (g Geometry) UnpackRow(row uint32) PPA {
	a := PPA{
		Plane: int(row >> 20 & 0xF),
		Block: int(row >> 9 & 0x7FF),
		Page:  int(row & 0x1FF),
	}
	g.checkPPA(a)
	return a
}

func (g Geometry) checkPPA(a PPA) {
	if a.Plane < 0 || a.Plane >= g.Planes ||
		a.Block < 0 || a.Block >= g.BlocksPerPlane ||
		a.Page < 0 || a.Page >= g.PagesPerBlock {
		panic(fmt.Sprintf("flash: PPA %v outside geometry %+v", a, g))
	}
}

// PageState is the lifecycle state of one physical page.
type PageState uint8

// Page states.
const (
	PageErased PageState = iota
	PageProgrammed
)

// Token is a page content token: a 64-bit stand-in for 16 KB of data.
type Token uint64

// ErasedToken is the content of an erased (all-ones) page.
const ErasedToken Token = 0

// Chip is one flash memory chip: a single die with multiple planes. Array
// operations serialize on the die; multi-plane commands run one array
// operation covering several planes at once.
type Chip struct {
	eng    *sim.Engine
	name   string
	geo    Geometry
	timing Timing

	die *sim.Resource // array busy; R/B_n abstraction

	pageReg    []Token // per-plane page registers
	vpage      []Token // pnSSD V-page registers (2 in the paper)
	vpageInUse []bool
	// vpageWaiters holds the grants of transfers parked until a V-page
	// register frees, in arrival order. A freed register passes straight
	// to the head waiter, so no one polls for buffer space.
	vpageWaiters []func(reg int)
	// lostWakeups makes the next that many hand-offs free the register
	// and leave the waiter parked; only the lost-wakeup mutation test
	// sets it.
	lostWakeups int

	content    [][]Token // [plane][block*pagesPerBlock+page]
	state      [][]PageState
	nextPage   [][]int // per [plane][block]: next programmable page index
	eraseCount [][]int

	reads, programs, erases int64

	// ops recycles the records of finished array operations (dieOp).
	ops sim.FreeList[dieOp]

	// faults injects transient read ECC failures; faultKey identifies
	// this chip in the injector's per-chip quota accounting.
	faults   *fault.Injector
	faultKey uint64
}

// NumVPageRegisters is the count of extra V-page registers the pnSSD
// on-die data-plane adds (the paper's cost discussion assumes two).
const NumVPageRegisters = 2

// dieOpPoolCap is how many idle dieOp records a chip keeps for reuse. A
// handful covers the operations that finish and start back to back; a
// saturated die can queue thousands, and keeping all of those after the
// queue drains would pin them for the rest of the run on every chip.
const dieOpPoolCap = 4

// NewChip builds an erased chip.
func NewChip(eng *sim.Engine, name string, geo Geometry, timing Timing) *Chip {
	geo.Validate()
	c := &Chip{
		eng:        eng,
		name:       name,
		geo:        geo,
		timing:     timing,
		die:        sim.NewResource(eng, name+"/die"),
		pageReg:    make([]Token, geo.Planes),
		vpage:      make([]Token, NumVPageRegisters),
		vpageInUse: make([]bool, NumVPageRegisters),
	}
	c.ops = sim.NewFreeList(dieOpPoolCap, c.newDieOp)
	c.content = make([][]Token, geo.Planes)
	c.state = make([][]PageState, geo.Planes)
	c.nextPage = make([][]int, geo.Planes)
	c.eraseCount = make([][]int, geo.Planes)
	for p := 0; p < geo.Planes; p++ {
		c.content[p] = make([]Token, geo.BlocksPerPlane*geo.PagesPerBlock)
		c.state[p] = make([]PageState, geo.BlocksPerPlane*geo.PagesPerBlock)
		c.nextPage[p] = make([]int, geo.BlocksPerPlane)
		c.eraseCount[p] = make([]int, geo.BlocksPerPlane)
	}
	return c
}

// Name returns the chip name.
func (c *Chip) Name() string { return c.name }

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.geo }

// Timing returns the array timing.
func (c *Chip) Timing() Timing { return c.timing }

// SetFaults attaches a fault injector. key identifies this chip for
// per-chip fault quotas; nil disables injection.
func (c *Chip) SetFaults(inj *fault.Injector, key uint64) {
	c.faults = inj
	c.faultKey = key
}

// AddObserver attaches a hold/queue observer to the die resource,
// alongside any already installed. The die reports one hold per array
// operation, labeled read/program/erase.
func (c *Chip) AddObserver(o sim.ResourceObserver) { c.die.AddObserver(o) }

// DieName returns the die resource's diagnostic name (the trace track
// name for this chip's array operations).
func (c *Chip) DieName() string { return c.die.Name() }

// VPagesHeld counts V-page registers currently claimed — nonzero after a
// drained run indicates a leaked register from an abandoned copy.
func (c *Chip) VPagesHeld() int {
	n := 0
	for _, used := range c.vpageInUse {
		if used {
			n++
		}
	}
	return n
}

// VPageWaiters counts transfers parked for a V-page register — nonzero
// after a drained run means a lost wakeup stranded them.
func (c *Chip) VPageWaiters() int { return len(c.vpageWaiters) }

// Busy reports whether the die is executing an array operation — the R/B_n
// pin abstraction.
func (c *Chip) Busy() bool { return c.die.Busy() }

// QueueLen reports array operations waiting behind the current one.
func (c *Chip) QueueLen() int { return c.die.QueueLen() }

// Counters returns (reads, programs, erases) executed.
func (c *Chip) Counters() (reads, programs, erases int64) {
	return c.reads, c.programs, c.erases
}

func (c *Chip) pageIndex(a PPA) int { return a.Block*c.geo.PagesPerBlock + a.Page }

// PageStateAt returns the lifecycle state of a page.
func (c *Chip) PageStateAt(a PPA) PageState {
	c.geo.checkPPA(a)
	return c.state[a.Plane][c.pageIndex(a)]
}

// ContentAt returns the stored token of a page (for verification).
func (c *Chip) ContentAt(a PPA) Token {
	c.geo.checkPPA(a)
	return c.content[a.Plane][c.pageIndex(a)]
}

// EraseCount returns the P/E cycle count of a block.
func (c *Chip) EraseCount(plane, block int) int {
	c.geo.checkPPA(PPA{Plane: plane, Block: block})
	return c.eraseCount[plane][block]
}

// checkMultiPlane validates a multi-plane address vector: non-empty,
// distinct planes, within geometry.
func (c *Chip) checkMultiPlane(ppas []PPA) {
	if len(ppas) == 0 || len(ppas) > c.geo.Planes {
		panic(fmt.Sprintf("flash %s: multi-plane op with %d addresses", c.name, len(ppas)))
	}
	seen := 0
	for _, a := range ppas {
		c.geo.checkPPA(a)
		bit := 1 << a.Plane
		if seen&bit != 0 {
			panic(fmt.Sprintf("flash %s: duplicate plane %d in multi-plane op", c.name, a.Plane))
		}
		seen |= bit
	}
}

// dieOpKind names the array operation a dieOp runs.
type dieOpKind uint8

const (
	dieRead dieOpKind = iota
	dieProgram
	dieErase
)

// dieOp is one array operation in flight on a chip, from the die request
// to its completion. Its two stages, grant (the die is ours: start the
// array timer) and finish (apply the effect, free the die, report), are
// method values bound once when the record is built, so an operation
// schedules no closures. The record goes back to the chip's free list
// before done runs, so done may start the next operation on it at once.
type dieOp struct {
	c      *Chip
	kind   dieOpKind
	addrs  []PPA       // targets; for a program, just their addresses
	writes []ProgramOp // program targets with their tokens
	vreg   int         // V-page register a commit frees when done, or -1
	done   func()

	grantFn, finishFn func()
}

func (c *Chip) newDieOp() *dieOp {
	d := &dieOp{c: c}
	d.grantFn = d.grant
	d.finishFn = d.finish
	return d
}

// grant runs when the die is granted and starts the array timer.
func (d *dieOp) grant() {
	c := d.c
	var t sim.Time
	switch d.kind {
	case dieRead:
		// The retry ladder extends the die-busy window: re-senses hold the
		// array exactly like the first sense does on real NAND.
		t = c.timing.Read + c.readFaultPenalty(len(d.addrs))
	case dieProgram:
		t = c.timing.Program
	default:
		t = c.timing.Erase
	}
	c.eng.Schedule(t, d.finishFn)
}

// finish applies the operation's effect on the array, frees the die,
// recycles the record and runs done.
func (d *dieOp) finish() {
	c := d.c
	switch d.kind {
	case dieRead:
		for _, a := range d.addrs {
			c.pageReg[a.Plane] = c.content[a.Plane][c.pageIndex(a)]
		}
		c.reads++
	case dieProgram:
		for _, op := range d.writes {
			c.content[op.Addr.Plane][c.pageIndex(op.Addr)] = op.Token
		}
		c.programs++
	default:
		for _, a := range d.addrs {
			base := a.Block * c.geo.PagesPerBlock
			for p := 0; p < c.geo.PagesPerBlock; p++ {
				c.state[a.Plane][base+p] = PageErased
				c.content[a.Plane][base+p] = ErasedToken
			}
			c.nextPage[a.Plane][a.Block] = 0
			c.eraseCount[a.Plane][a.Block]++
		}
		c.erases++
	}
	c.die.Release()
	done, vreg := d.done, d.vreg
	d.done = nil
	c.ops.Put(d)
	if vreg >= 0 {
		c.freeVPage(vreg)
	}
	if done != nil {
		done()
	}
}

// Read performs a (multi-plane) page read: after tR the addressed pages'
// contents sit in their planes' page registers and done runs. The die is
// busy for the duration.
func (c *Chip) Read(ppas []PPA, done func()) {
	c.checkMultiPlane(ppas)
	for _, a := range ppas {
		if c.state[a.Plane][c.pageIndex(a)] != PageProgrammed {
			panic(fmt.Sprintf("flash %s: read of unprogrammed page %v", c.name, a))
		}
	}
	d := c.ops.Get()
	d.kind, d.vreg, d.done = dieRead, -1, done
	d.addrs = append(d.addrs[:0], ppas...)
	c.die.AcquireLabeled("read", d.grantFn)
}

// readFaultPenalty draws the transient-ECC outcome for each page of a
// read and returns the extra die time the worst page costs. A faulted
// page climbs the read-retry ladder — retry k re-senses at tR plus
// k*ReadRetryStep (modelling shifted-Vref sensing) — and if the ladder is
// exhausted the page relays through the controller's strong ECC engine
// for StrongECCLatency. Planes sense in parallel, so the slowest page
// bounds the multi-plane operation.
func (c *Chip) readFaultPenalty(pages int) sim.Time {
	if c.faults == nil || c.faults.Rate(fault.ReadECC) <= 0 {
		return 0
	}
	cfg := c.faults.Config()
	ras := c.faults.RAS()
	var worst sim.Time
	for p := 0; p < pages; p++ {
		if !c.faults.DrawFor(fault.ReadECC, c.faultKey) {
			continue
		}
		ras.ReadFaults++
		var pen sim.Time
		retries := 0
		recovered := false
		for retries < cfg.ReadRetryMax {
			retries++
			pen += c.timing.Read + sim.Time(retries)*cfg.ReadRetryStep
			if !c.faults.DrawFor(fault.ReadECC, c.faultKey) {
				recovered = true
				break
			}
		}
		ras.ReadRetries += int64(retries)
		ras.RetryLadder.Add(retries)
		if !recovered {
			ras.ReadRelays++
			pen += cfg.StrongECCLatency
		}
		if pen > worst {
			worst = pen
		}
	}
	return worst
}

// ProgramOp names a target page and the token to program into it.
type ProgramOp struct {
	Addr  PPA
	Token Token
}

// Program performs a (multi-plane) page program from supplied tokens. The
// target pages must be erased. NAND's program-in-order rule within a block
// is enforced by the FTL allocator, which hands out pages sequentially;
// the chip itself tolerates out-of-order arrival because multi-path
// fabrics (Omnibus adaptive routing, the mesh) can reorder in-flight
// programs that were issued in order.
func (c *Chip) Program(ops []ProgramOp, done func()) { c.program(ops, -1, done) }

// program is Program for a commit that frees V-page register vreg when
// it completes, before done; vreg -1 frees none.
func (c *Chip) program(ops []ProgramOp, vreg int, done func()) {
	d := c.ops.Get()
	d.addrs = d.addrs[:0]
	for _, op := range ops {
		d.addrs = append(d.addrs, op.Addr)
	}
	c.checkMultiPlane(d.addrs)
	for _, op := range ops {
		a := op.Addr
		if c.state[a.Plane][c.pageIndex(a)] != PageErased {
			panic(fmt.Sprintf("flash %s: program of non-erased page %v", c.name, a))
		}
	}
	d.writes = append(d.writes[:0], ops...)
	// State is committed at issue time so a read queued behind this program
	// on the die validates against the state it will observe at grant.
	for _, op := range d.writes {
		c.nextPage[op.Addr.Plane][op.Addr.Block]++
		c.state[op.Addr.Plane][c.pageIndex(op.Addr)] = PageProgrammed
	}
	d.kind, d.vreg, d.done = dieProgram, vreg, done
	c.die.AcquireLabeled("program", d.grantFn)
}

// ProgramFromVPage programs a V-page register's content into the array —
// the commit step of a flash-to-flash copy (OpVCommit). The register is
// freed when the program completes.
func (c *Chip) ProgramFromVPage(reg int, addr PPA, done func()) {
	c.checkVReg(reg)
	if !c.vpageInUse[reg] {
		panic(fmt.Sprintf("flash %s: VCommit from empty V-page register %d", c.name, reg))
	}
	c.program([]ProgramOp{{Addr: addr, Token: c.vpage[reg]}}, reg, done)
}

// Erase erases one block per addressed plane (multi-plane erase). All
// pages return to the erased state and the block's P/E count increments.
// Only each address's plane and block count; the page is ignored.
func (c *Chip) Erase(blocks []PPA, done func()) {
	d := c.ops.Get()
	d.addrs = append(d.addrs[:0], blocks...)
	for i := range d.addrs {
		d.addrs[i].Page = 0
	}
	c.checkMultiPlane(d.addrs)
	d.kind, d.vreg, d.done = dieErase, -1, done
	c.die.AcquireLabeled("erase", d.grantFn)
}

// PageRegister returns the content of a plane's page register.
func (c *Chip) PageRegister(plane int) Token {
	if plane < 0 || plane >= c.geo.Planes {
		panic(fmt.Sprintf("flash %s: plane %d out of range", c.name, plane))
	}
	return c.pageReg[plane]
}

// SetPageRegister loads a plane's page register, modelling payload arrival
// from the channel ahead of a program.
func (c *Chip) SetPageRegister(plane int, t Token) {
	if plane < 0 || plane >= c.geo.Planes {
		panic(fmt.Sprintf("flash %s: plane %d out of range", c.name, plane))
	}
	c.pageReg[plane] = t
}

func (c *Chip) checkVReg(reg int) {
	if reg < 0 || reg >= len(c.vpage) {
		panic(fmt.Sprintf("flash %s: V-page register %d out of range", c.name, reg))
	}
}

// AcquireVPage claims a free V-page register, returning its index or -1
// when both are held.
func (c *Chip) AcquireVPage() int {
	for i, used := range c.vpageInUse {
		if !used {
			c.vpageInUse[i] = true
			return i
		}
	}
	return -1
}

// WaitVPage runs grant with a claimed V-page register: at once when one
// is free and no transfer is parked ahead, otherwise when a commit or
// abort frees one for it, in arrival order — the buffer-status check the
// Omnibus control plane performs before granting a v-channel transfer
// (Fig 11), answered when the buffer frees instead of polled for.
func (c *Chip) WaitVPage(grant func(reg int)) {
	if len(c.vpageWaiters) == 0 {
		if reg := c.AcquireVPage(); reg >= 0 {
			grant(reg)
			return
		}
	}
	c.vpageWaiters = append(c.vpageWaiters, grant)
}

// freeVPage releases a claimed register, handing it straight to the head
// waiter when one is parked: the register stays claimed, now on its
// behalf.
func (c *Chip) freeVPage(reg int) {
	if len(c.vpageWaiters) == 0 {
		c.vpageInUse[reg] = false
		return
	}
	if c.lostWakeups > 0 {
		c.lostWakeups--
		c.vpageInUse[reg] = false
		return
	}
	grant := c.vpageWaiters[0]
	c.vpageWaiters[0] = nil
	c.vpageWaiters = c.vpageWaiters[1:]
	grant(reg)
}

// VPageFree reports whether any V-page register is free.
func (c *Chip) VPageFree() bool {
	for _, used := range c.vpageInUse {
		if !used {
			return true
		}
	}
	return false
}

// SetVPage stores payload arriving over a v-channel into a claimed V-page
// register.
func (c *Chip) SetVPage(reg int, t Token) {
	c.checkVReg(reg)
	if !c.vpageInUse[reg] {
		panic(fmt.Sprintf("flash %s: store into unclaimed V-page register %d", c.name, reg))
	}
	c.vpage[reg] = t
}

// VPage returns a V-page register's content.
func (c *Chip) VPage(reg int) Token {
	c.checkVReg(reg)
	return c.vpage[reg]
}

// ReleaseVPage frees a claimed register without committing it (abort
// path), handing it to the head waiter if one is parked.
func (c *Chip) ReleaseVPage(reg int) {
	c.checkVReg(reg)
	if !c.vpageInUse[reg] {
		panic(fmt.Sprintf("flash %s: release of unclaimed V-page register %d", c.name, reg))
	}
	c.freeVPage(reg)
}

// InstallPage instantly programs a page with no simulated time, for
// warming up device state before a measured run. It bypasses the die and
// must not be called once simulation I/O is in flight.
func (c *Chip) InstallPage(a PPA, t Token) {
	c.geo.checkPPA(a)
	if c.state[a.Plane][c.pageIndex(a)] != PageErased {
		panic(fmt.Sprintf("flash %s: install over programmed page %v", c.name, a))
	}
	c.state[a.Plane][c.pageIndex(a)] = PageProgrammed
	c.content[a.Plane][c.pageIndex(a)] = t
	c.nextPage[a.Plane][a.Block]++
}

// Address converts a PPA to the on-wire packet address.
func (c *Chip) Address(a PPA) packet.Address {
	return packet.Address{Column: 0, Row: c.geo.PackRow(a)}
}
