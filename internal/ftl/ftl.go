// Package ftl implements the flash translation layer: page-level logical
// to physical mapping, the PCWD/PWCD page allocation policies, and three
// garbage collectors — parallel GC (PaGC, the paper's baseline), a
// semi-preemptive GC, and the paper's Spatial GC, which partitions the
// ways into an I/O group and a GC group so collection runs concurrently
// with host I/O on physically disjoint flash (Sec VI).
//
// The FTL talks to the flash exclusively through a controller.Fabric, so
// the identical mapping and GC logic runs against every architecture and
// all performance differences come from the interconnect.
package ftl

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// GCMode selects the garbage collection engine.
type GCMode int

// GC modes.
const (
	GCNone       GCMode = iota // never collect (for no-GC experiments)
	GCParallel                 // PaGC: all chips collect at once
	GCPreemptive               // semi-preemptive: yields to host I/O between copies
	GCSpatial                  // SpGC: I/O group vs GC group (Sec VI)
)

// String names the mode.
func (m GCMode) String() string {
	switch m {
	case GCNone:
		return "none"
	case GCParallel:
		return "pagc"
	case GCPreemptive:
		return "preemptive"
	case GCSpatial:
		return "spgc"
	default:
		return fmt.Sprintf("gcmode(%d)", int(m))
	}
}

// VictimPolicy selects how GC picks victim blocks.
type VictimPolicy int

// Victim selection policies.
const (
	// VictimGreedy picks the blocks with the fewest valid pages — the
	// paper's baseline policy.
	VictimGreedy VictimPolicy = iota
	// VictimCostBenefit weighs reclaimed space against copy cost and
	// block age: maximize (1-u)/(2u) * age, the classic cleaning policy.
	// Cold blocks are preferred at equal utilization.
	VictimCostBenefit
)

// String names the policy.
func (p VictimPolicy) String() string {
	if p == VictimCostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

// Config parameterizes the FTL.
type Config struct {
	Policy AllocPolicy
	GCMode GCMode
	// Victim selects the GC victim policy (default greedy, as the paper).
	Victim VictimPolicy
	// GCThreshold triggers collection when the free-block fraction drops
	// below it.
	GCThreshold float64
	// VictimsPerChip is the number of victim blocks selected per
	// participating chip per GC round (the paper doubles this for SpGC so
	// total victims match the baseline).
	VictimsPerChip int
	// GCGroupFraction is the fraction of ways assigned to the GC group
	// under SpGC; the paper uses 1/2 and discusses 1/4 as an ablation.
	GCGroupFraction float64
	// Map enables the FMMU-style demand-paged map unit (map.go); nil
	// selects flat mapping, byte-identical to builds without the unit.
	Map *MapConfig
}

// DefaultConfig returns the paper's FTL parameters.
func DefaultConfig() Config {
	return Config{
		Policy:          PCWD,
		GCMode:          GCParallel,
		GCThreshold:     0.25,
		VictimsPerChip:  1,
		GCGroupFraction: 0.5,
	}
}

const unmapped = int64(-1)

// Stats aggregates FTL activity over a run.
type Stats struct {
	HostReads      int64
	HostWrites     int64
	GCRounds       int64
	GCPagesCopied  int64
	GCBlocksErased int64
	GCTotalTime    sim.Time
	GCLastTime     sim.Time
	// WriteStalls counts host writes that parked on allocation space,
	// each once when it first parks however many retries it waits for.
	WriteStalls int64
}

// FTL is the translation layer over one fabric.
type FTL struct {
	eng *sim.Engine
	fab controller.Fabric
	cfg Config
	geo flash.Geometry

	channels, ways int
	numLPNs        int64

	l2p    []int64 // lpn -> phys, or unmapped
	p2l    []int64 // phys -> lpn, or unmapped
	planes []*planeState
	alloc  *allocator
	// freeBlocks counts erased blocks across every plane; the planes
	// update it through their shared pool pointer.
	freeBlocks int

	// in-flight write tracking: reads of an LPN with a write in flight
	// wait for the write to land.
	inflightWrites map[int64]int
	writeWaiters   map[int64][]func()

	// stalled holds host writes parked on allocation space, in the order
	// they parked; retryStalled issues them from the head as blocks free.
	stalled []*stalledWrite

	// reserveBlocks is the pool of free blocks host writes may not consume
	// — headroom that guarantees GC can always allocate copy destinations.
	reserveBlocks int

	outstanding int // host ops in flight (preemptive GC probe)

	gcActive  bool
	gcGroupLo bool // SpGC: true when the low-way half is the GC group
	stats     Stats

	// faults draws program/erase failure outcomes; nil means no injection.
	faults *fault.Injector

	// trc records GC-round and write-stall spans; nil (the default)
	// disables tracing with no overhead.
	trc    *trace.Recorder
	gcSpan trace.SpanID

	// tel feeds GC activity windows and per-request stall attribution;
	// nil (the default) disables telemetry with no overhead.
	tel *telemetry.Collector

	// sink receives page-commit notifications for invariant checking; nil
	// (the default) disables the hook with no overhead.
	sink CheckSink

	// mapu is the FMMU map unit; nil selects flat mapping with zero
	// translation overhead (map.go).
	mapu *mapUnit
}

// CheckSink receives the FTL's authoritative record of what every LPN
// should contain: one PageWritten per committed mapping update, covering
// host writes, warm-up installs, and fault-remapped reissues. The
// invariant checker uses it to verify page conservation at drain.
type CheckSink interface {
	PageWritten(lpn int64, tok flash.Token)
}

// SetChecker attaches a page-commit sink; nil (the default) detaches.
func (f *FTL) SetChecker(s CheckSink) { f.sink = s }

// New builds an FTL over the fabric. numLPNs is the exported logical
// capacity in pages; it must leave over-provisioning headroom below the
// raw capacity or GC cannot make progress.
func New(eng *sim.Engine, fab controller.Fabric, cfg Config, numLPNs int64) *FTL {
	grid := fab.Grid()
	geo := grid.Chip(controller.ChipID{Channel: 0, Way: 0}).Geometry()
	raw := int64(grid.NumChips()) * int64(geo.PagesPerChip())
	if numLPNs <= 0 || numLPNs >= raw {
		panic(fmt.Sprintf("ftl: logical capacity %d must be in (0, %d)", numLPNs, raw))
	}
	if cfg.GCMode == GCSpatial && (cfg.GCGroupFraction <= 0 || cfg.GCGroupFraction >= 1) {
		panic("ftl: GCGroupFraction must be in (0,1)")
	}
	f := &FTL{
		eng:            eng,
		fab:            fab,
		cfg:            cfg,
		geo:            geo,
		channels:       grid.Channels,
		ways:           grid.Ways,
		numLPNs:        numLPNs,
		l2p:            make([]int64, numLPNs),
		p2l:            make([]int64, raw),
		planes:         make([]*planeState, grid.NumChips()*geo.Planes),
		alloc:          newAllocator(cfg.Policy, grid.Channels, grid.Ways, geo.Planes),
		inflightWrites: make(map[int64]int),
		writeWaiters:   make(map[int64][]func()),
		gcGroupLo:      false,                     // first SpGC round collects the high half
		reserveBlocks:  grid.Channels * grid.Ways, // one block per chip
	}
	for i := range f.l2p {
		f.l2p[i] = unmapped
	}
	for i := range f.p2l {
		f.p2l[i] = unmapped
	}
	for i := range f.planes {
		f.planes[i] = newPlaneState(geo.BlocksPerPlane, geo.PagesPerBlock, &f.freeBlocks)
	}
	if cfg.Map != nil {
		f.mapu = newMapUnit(f, *cfg.Map)
	}
	return f
}

// Stats returns a copy of the accumulated statistics.
func (f *FTL) Stats() Stats { return f.stats }

// SetFaults attaches the fault injector; nil disables injection.
func (f *FTL) SetFaults(inj *fault.Injector) { f.faults = inj }

// SetTracer attaches a trace recorder for GC-round and write-stall spans;
// nil (the default) detaches.
func (f *FTL) SetTracer(t *trace.Recorder) { f.trc = t }

// SetTelemetry attaches a telemetry collector for GC activity windows
// and stall attribution; nil (the default) detaches.
func (f *FTL) SetTelemetry(c *telemetry.Collector) { f.tel = c }

// chipKey identifies a chip in the injector's per-chip quota maps.
func (f *FTL) chipKey(id controller.ChipID) uint64 {
	return uint64(id.Channel*f.ways + id.Way)
}

// ras returns the RAS counters (non-nil only when an injector with RAS
// accounting is attached). Fault-handling paths only run after a draw
// fired, which requires a live injector, so they may use it directly.
func (f *FTL) ras() *stats.RAS { return f.faults.RAS() }

// RetiredBlocks counts blocks permanently removed from service.
func (f *FTL) RetiredBlocks() int {
	n := 0
	for _, ps := range f.planes {
		for b := range ps.blocks {
			if ps.blocks[b].bad {
				n++
			}
		}
	}
	return n
}

// NumLPNs returns the exported logical capacity in pages.
func (f *FTL) NumLPNs() int64 { return f.numLPNs }

// GCActive reports whether a collection round is in progress.
func (f *FTL) GCActive() bool { return f.gcActive }

// Outstanding returns host operations in flight.
func (f *FTL) Outstanding() int { return f.outstanding }

// InflightWriteLPNs returns the number of LPNs with writes still in
// flight — nonzero after a drained run indicates a leaked reference.
func (f *FTL) InflightWriteLPNs() int { return len(f.inflightWrites) }

// StalledWrites returns writes parked on allocation space — nonzero after
// a drained run indicates the device wedged out of space.
func (f *FTL) StalledWrites() int { return len(f.stalled) }

func (f *FTL) planeAt(id controller.ChipID, plane int) *planeState {
	chipIdx := id.Channel*f.ways + id.Way
	return f.planes[chipIdx*f.geo.Planes+plane]
}

func (f *FTL) checkLPN(lpn int64) {
	if lpn < 0 || lpn >= f.numLPNs {
		panic(fmt.Sprintf("ftl: LPN %d outside [0,%d)", lpn, f.numLPNs))
	}
}

// FreeBlockFraction returns the fraction of all blocks currently erased.
func (f *FTL) FreeBlockFraction() float64 {
	return float64(f.freeBlocks) / float64(len(f.planes)*f.geo.BlocksPerPlane)
}

// TokenFor derives the content token the FTL writes for a (lpn, version)
// pair; tests use it to verify end-to-end data integrity.
func TokenFor(lpn int64, version int64) flash.Token {
	x := uint64(lpn)*0x9E3779B97F4A7C15 + uint64(version)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return flash.Token(x)
}

// Map returns the physical location backing an LPN and whether it is
// mapped.
func (f *FTL) Map(lpn int64) (controller.ChipID, flash.PPA, bool) {
	f.checkLPN(lpn)
	phys := f.l2p[lpn]
	if phys == unmapped {
		return controller.ChipID{}, flash.PPA{}, false
	}
	id, addr := physDecode(f.geo, f.ways, phys)
	return id, addr, true
}

// warmupSlot picks an allocation slot for instant warm-up writes. Like
// host writes it must not strand the device without erased blocks: slots
// with an open active block are preferred, and a new block is opened only
// while the GC reserve stays intact. Without this, warm-up churn would
// open one partial block in every plane and leave zero erased blocks —
// a state from which GC cannot allocate a single copy destination.
func (f *FTL) warmupSlot() (slot, bool) {
	if s, ok := f.alloc.next(func(s slot) bool { return f.planeAt(s.chip, s.plane).active >= 0 }); ok {
		return s, true
	}
	return f.alloc.next(func(s slot) bool {
		ps := f.planeAt(s.chip, s.plane)
		return len(ps.free) > 0 && f.totalFreeBlocks() > f.reserveBlocks
	})
}

// Install instantly maps and programs an LPN for pre-run warmup, consuming
// no simulated time. It uses the normal allocator so warmed-up layouts
// match what the policy would have produced.
func (f *FTL) Install(lpn int64, tok flash.Token) {
	f.checkLPN(lpn)
	if f.l2p[lpn] != unmapped {
		panic(fmt.Sprintf("ftl: Install over mapped LPN %d", lpn))
	}
	s, ok := f.alloc.next(func(s slot) bool { return f.planeAt(s.chip, s.plane).hasSpace() })
	if !ok {
		panic("ftl: Install with no space")
	}
	ps := f.planeAt(s.chip, s.plane)
	block, page, err := ps.allocate()
	if err != nil {
		panic(fmt.Sprintf("ftl: Install allocation failed: %v", err))
	}
	addr := flash.PPA{Plane: s.plane, Block: block, Page: page}
	f.fab.Grid().Chip(s.chip).InstallPage(addr, tok)
	phys := physIndex(f.geo, f.ways, s.chip, addr)
	f.l2p[lpn] = phys
	f.p2l[phys] = lpn
	ps.blocks[block].validCount++
	if f.sink != nil {
		f.sink.PageWritten(lpn, tok)
	}
	if f.mapu != nil {
		f.mapu.warmTouch(lpn)
	}
}

// Reinstall instantly overwrites an already-mapped LPN during warmup:
// the old page is invalidated and a fresh one allocated and programmed,
// consuming no simulated time. Warm-up churn with Reinstall produces the
// realistic block fragmentation GC experiments need without simulating
// millions of writes.
func (f *FTL) Reinstall(lpn int64, tok flash.Token) {
	f.checkLPN(lpn)
	old := f.l2p[lpn]
	if old == unmapped {
		panic(fmt.Sprintf("ftl: Reinstall of unmapped LPN %d", lpn))
	}
	s, ok := f.warmupSlot()
	if !ok {
		panic("ftl: Reinstall with no space (respecting the GC reserve)")
	}
	f.invalidatePhys(old)
	ps := f.planeAt(s.chip, s.plane)
	block, page, err := ps.allocate()
	if err != nil {
		panic(fmt.Sprintf("ftl: Reinstall allocation failed: %v", err))
	}
	addr := flash.PPA{Plane: s.plane, Block: block, Page: page}
	f.fab.Grid().Chip(s.chip).InstallPage(addr, tok)
	phys := physIndex(f.geo, f.ways, s.chip, addr)
	f.l2p[lpn] = phys
	f.p2l[phys] = lpn
	ps.blocks[block].validCount++
	if f.sink != nil {
		f.sink.PageWritten(lpn, tok)
	}
	if f.mapu != nil {
		f.mapu.warmTouch(lpn)
	}
}

// groupOps batches per-page operations on one chip into multi-plane sets
// with distinct planes.
type chipBatch struct {
	id   controller.ChipID
	ppas []flash.PPA
	toks []flash.Token
	lpns []int64 // parallel to ppas on write batches; nil on reads
}

func batchByChip(locs []controller.ChipID, addrs []flash.PPA, toks []flash.Token, lpns []int64) []chipBatch {
	var batches []chipBatch
	open := make(map[controller.ChipID]int) // chip -> open batch index
	for i := range locs {
		id := locs[i]
		bi, ok := open[id]
		if ok {
			b := &batches[bi]
			conflict := false
			for _, a := range b.ppas {
				if a.Plane == addrs[i].Plane {
					conflict = true
					break
				}
			}
			if !conflict {
				b.ppas = append(b.ppas, addrs[i])
				if toks != nil {
					b.toks = append(b.toks, toks[i])
				}
				if lpns != nil {
					b.lpns = append(b.lpns, lpns[i])
				}
				continue
			}
		}
		nb := chipBatch{id: id, ppas: []flash.PPA{addrs[i]}}
		if toks != nil {
			nb.toks = []flash.Token{toks[i]}
		}
		if lpns != nil {
			nb.lpns = []int64{lpns[i]}
		}
		batches = append(batches, nb)
		open[id] = len(batches) - 1
	}
	return batches
}

// Read services host page reads for the given LPNs, invoking done when
// every page has arrived in DRAM. Reads of LPNs with writes in flight wait
// for those writes; reads of never-written LPNs panic — warm up first.
func (f *FTL) Read(lpns []int64, done func()) {
	f.ReadTracked(lpns, nil, done)
}

// ReadTracked is Read carrying a latency attribution: time the read
// spends parked behind in-flight writes is credited to the stall
// phase, everything from issue onward to flash. att may be nil.
func (f *FTL) ReadTracked(lpns []int64, att *telemetry.Attribution, done func()) {
	if len(lpns) == 0 {
		panic("ftl: empty read")
	}
	f.outstanding++
	f.stats.HostReads += int64(len(lpns))
	wrapped := func() {
		f.outstanding--
		done()
	}
	for _, lpn := range lpns {
		f.checkLPN(lpn)
	}
	f.readWhenStable(append([]int64(nil), lpns...), att, wrapped)
}

// readWhenStable issues the read once no target LPN has a write in
// flight. Every wake-up re-checks the whole set: while the read waited on
// one LPN, a fresh write to another may have started, and issuing then
// would read a page whose program has not reached the chip.
func (f *FTL) readWhenStable(lpns []int64, att *telemetry.Attribution, done func()) {
	for _, lpn := range lpns {
		if f.inflightWrites[lpn] > 0 {
			f.writeWaiters[lpn] = append(f.writeWaiters[lpn], func() {
				f.readWhenStable(lpns, att, done)
			})
			return
		}
	}
	// Any wait behind in-flight writes ends here; un-stalled reads
	// mark at their own issue instant and credit an exact zero.
	att.Mark(telemetry.PhaseStall, f.eng.Now())
	if f.mapu == nil {
		f.issueRead(lpns, done)
		return
	}
	f.mapu.translate(lpns, func() {
		att.Mark(telemetry.PhaseMap, f.eng.Now())
		// A fetch consumed simulated time: a write to one of the target
		// LPNs may have started meanwhile, so re-check stability before
		// issuing (any new wait is credited back to the stall phase).
		for _, lpn := range lpns {
			if f.inflightWrites[lpn] > 0 {
				f.readWhenStable(lpns, att, done)
				return
			}
		}
		f.issueRead(lpns, done)
	})
}

func (f *FTL) issueRead(lpns []int64, done func()) {
	locs := make([]controller.ChipID, len(lpns))
	addrs := make([]flash.PPA, len(lpns))
	for i, lpn := range lpns {
		id, addr, ok := f.Map(lpn)
		if !ok {
			panic(fmt.Sprintf("ftl: read of unmapped LPN %d (warm up the footprint first)", lpn))
		}
		locs[i], addrs[i] = id, addr
	}
	batches := batchByChip(locs, addrs, nil, nil)
	remaining := len(batches)
	for _, b := range batches {
		b := b
		// Pin the blocks under read so GC cannot erase them while the read
		// is still queued behind channel or die contention.
		for i, a := range b.ppas {
			if f.fab.Grid().Chip(b.id).PageStateAt(a) != flash.PageProgrammed {
				bi := f.planeAt(b.id, a.Plane).blocks[a.Block]
				phys := physIndex(f.geo, f.ways, b.id, a)
				lpn := f.p2l[phys]
				infl := -1
				if lpn >= 0 {
					infl = f.inflightWrites[lpn]
				}
				var readLPN, readL2P int64 = -1, -1
				for _, cand := range lpns {
					if f.l2p[cand] == phys {
						readLPN, readL2P = cand, f.l2p[cand]
					}
				}
				panic(fmt.Sprintf("ftl: issueRead of erased page %v on %v (batch idx %d, block state=%d valid=%d inflight=%d refs=%d, p2l=%d inflightWrites[p2l]=%d l2p[p2l]=%d readLPN=%d readL2P=%d inflightWrites[readLPN]=%d phys=%d)",
					a, b.id, i, bi.state, bi.validCount, bi.inflight, bi.readRefs, lpn, infl, func() int64 {
						if lpn >= 0 {
							return f.l2p[lpn]
						}
						return -2
					}(), readLPN, readL2P, f.inflightWrites[readLPN], phys))
			}
			f.planeAt(b.id, a.Plane).blocks[a.Block].readRefs++
		}
		f.fab.Read(b.id, b.ppas, func() {
			for _, a := range b.ppas {
				f.planeAt(b.id, a.Plane).blocks[a.Block].readRefs--
			}
			remaining--
			if remaining == 0 {
				done()
			}
		})
	}
}

// Write services host page writes: each LPN gets a fresh physical page
// from the allocation policy, the old page (if any) is invalidated, and
// done fires when every program completes. Writes trigger GC when free
// space drops below the threshold; when no space is allocatable (GC group
// restriction or genuine exhaustion) the write stalls until blocks free.
func (f *FTL) Write(lpns []int64, toks []flash.Token, done func()) {
	f.WriteTracked(lpns, toks, nil, done)
}

// WriteTracked is Write carrying a latency attribution: time blocked
// on free-page allocation (GC stalls) is credited to the stall phase,
// program time from the final full allocation onward to flash. att may
// be nil.
func (f *FTL) WriteTracked(lpns []int64, toks []flash.Token, att *telemetry.Attribution, done func()) {
	if len(lpns) == 0 || len(lpns) != len(toks) {
		panic("ftl: malformed write")
	}
	f.outstanding++
	f.stats.HostWrites += int64(len(lpns))
	wrapped := func() {
		f.outstanding--
		done()
	}
	lp := append([]int64(nil), lpns...)
	tk := append([]flash.Token(nil), toks...)
	if f.mapu == nil {
		f.tryWrite(lp, tk, att, wrapped)
		f.maybeTriggerGC()
		return
	}
	// Even an overwrite consults the map first — honest DFTL lookup
	// traffic: the FTL must know the old physical page to invalidate it.
	f.mapu.translate(lp, func() {
		att.Mark(telemetry.PhaseMap, f.eng.Now())
		f.tryWrite(lp, tk, att, wrapped)
		f.maybeTriggerGC()
	})
}

// hostWriteAllowed reports whether host writes may target a slot right
// now: under active SpGC, writes are restricted to the I/O group, and a
// host write may not open a fresh block when doing so would eat into the
// GC reserve — it stalls until collection frees space instead.
func (f *FTL) hostWriteAllowed(s slot) bool {
	ps := f.planeAt(s.chip, s.plane)
	if !ps.hasSpace() {
		return false
	}
	if ps.active < 0 && f.cfg.GCMode != GCNone && f.totalFreeBlocks() <= f.reserveBlocks {
		return false
	}
	if f.gcActive && f.cfg.GCMode == GCSpatial && f.inGCGroup(s.chip.Way) {
		return false
	}
	return true
}

// stalledWrite is the unissued remainder of a host write parked on
// allocation space.
type stalledWrite struct {
	lpns []int64
	toks []flash.Token
	att  *telemetry.Attribution
	done func()
	span trace.SpanID
}

// tryWrite issues a new host write, parking what it cannot allocate at
// the tail of the stall queue.
func (f *FTL) tryWrite(lpns []int64, toks []flash.Token, att *telemetry.Attribution, done func()) {
	lpns, toks, issued := f.issueWrite(lpns, toks, att, done)
	if issued {
		return
	}
	w := &stalledWrite{lpns: lpns, toks: toks, att: att, done: done}
	f.stats.WriteStalls++
	f.tel.Event("write-stall", f.eng.Now())
	if f.trc.Enabled() {
		w.span = f.trc.BeginSpan("ftl", "write-stall", trace.KV{K: "pages", V: len(w.lpns)})
	}
	f.stalled = append(f.stalled, w)
	// A stalled write means allocation is out of space right now —
	// collection must run no matter where the threshold sits.
	if !f.gcActive && f.cfg.GCMode != GCNone {
		f.startGC(nil)
	}
}

// issueWrite allocates as many pages as space allows. A full allocation
// commits the write and reports issued; a shortfall commits the
// allocated prefix and returns the pages still to allocate.
func (f *FTL) issueWrite(lpns []int64, toks []flash.Token, att *telemetry.Attribution, done func()) (restLPNs []int64, restToks []flash.Token, issued bool) {
	targets := make([]pendingTarget, 0, len(lpns))
	for range lpns {
		s, ok := f.alloc.next(f.hostWriteAllowed)
		if !ok {
			break
		}
		ps := f.planeAt(s.chip, s.plane)
		block, page, err := ps.allocate()
		if err != nil {
			// Recoverable shortfall (a fault retired the block between the
			// filter's space check and here): stall like any other.
			break
		}
		targets = append(targets, pendingTarget{s: s, block: block, page: page})
	}
	if n := len(targets); n < len(lpns) {
		if n > 0 {
			f.commitWrite(lpns[:n], toks[:n], targets, nil)
		}
		return lpns[n:], toks[n:], false
	}
	// Full allocation succeeded: any stall epochs end here. For a
	// write whose prefix committed earlier, program time overlapping
	// the stall is credited to the stall (the binding constraint).
	att.Mark(telemetry.PhaseStall, f.eng.Now())
	f.commitWrite(lpns, toks, targets, done)
	return nil, nil, true
}

type pendingTarget struct {
	s     slot
	block int
	page  int
}

func (f *FTL) commitWrite(lpns []int64, toks []flash.Token, targets []pendingTarget, done func()) {
	locs := make([]controller.ChipID, len(lpns))
	addrs := make([]flash.PPA, len(lpns))
	for i, tgt := range targets {
		lpn := lpns[i]
		// Invalidate the previous version.
		if old := f.l2p[lpn]; old != unmapped {
			f.invalidatePhys(old)
		}
		addr := flash.PPA{Plane: tgt.s.plane, Block: tgt.block, Page: tgt.page}
		phys := physIndex(f.geo, f.ways, tgt.s.chip, addr)
		if f.p2l[phys] != unmapped {
			panic(fmt.Sprintf("ftl: commitWrite double-maps phys %d (old lpn %d, new lpn %d) at %v/%v", phys, f.p2l[phys], lpn, tgt.s.chip, addr))
		}
		f.l2p[lpn] = phys
		f.p2l[phys] = lpn
		ps := f.planeAt(tgt.s.chip, tgt.s.plane)
		ps.blocks[tgt.block].validCount++
		ps.blocks[tgt.block].inflight++
		ps.blocks[tgt.block].lastWrite = int64(f.eng.Now())
		f.inflightWrites[lpn]++
		if f.sink != nil {
			f.sink.PageWritten(lpn, toks[i])
		}
		if f.mapu != nil {
			f.mapu.noteUpdate(lpn)
		}
		locs[i], addrs[i] = tgt.s.chip, addr
	}
	batches := batchByChip(locs, addrs, toks, lpns)
	remaining := len(batches)
	lpnsCopy := append([]int64(nil), lpns...)
	for _, b := range batches {
		b := b
		ops := make([]flash.ProgramOp, len(b.ppas))
		for i := range b.ppas {
			ops[i] = flash.ProgramOp{Addr: b.ppas[i], Token: b.toks[i]}
		}
		f.fab.Write(b.id, ops, func() {
			for _, a := range b.ppas {
				f.planeAt(b.id, a.Plane).blocks[a.Block].inflight--
			}
			// Firmware reads the NAND status register after tPROG: a failed
			// program retires the block and remaps the write. The remap
			// holds its own in-flight reference, so reads of the remapped
			// LPN keep waiting even after this batch releases below.
			if f.faults != nil {
				f.handleProgramFaults(b)
			}
			remaining--
			if remaining == 0 {
				for _, lpn := range lpnsCopy {
					f.releaseInflight(lpn)
				}
				// Liveness backstop: if writes are parked with no collection
				// running (a zero-victim round finished while every Full block
				// still had programs in flight), this completion is the event
				// that unblocks victim selection — restart GC. Healthy runs
				// never take this branch: a stall always leaves gcActive set.
				if len(f.stalled) > 0 && !f.gcActive && f.cfg.GCMode != GCNone {
					f.startGC(nil)
				}
				if done != nil {
					done()
				}
			}
		})
	}
}

// holdInflight adds an in-flight write reference for an LPN, keeping
// reads of it parked.
func (f *FTL) holdInflight(lpn int64) { f.inflightWrites[lpn]++ }

// releaseInflight drops one in-flight reference; the last release wakes
// reads that were waiting on the LPN.
func (f *FTL) releaseInflight(lpn int64) {
	f.inflightWrites[lpn]--
	if f.inflightWrites[lpn] < 0 {
		panic(fmt.Sprintf("ftl: negative inflight count for LPN %d", lpn))
	}
	if f.inflightWrites[lpn] == 0 {
		delete(f.inflightWrites, lpn)
		waiters := f.writeWaiters[lpn]
		delete(f.writeWaiters, lpn)
		for _, w := range waiters {
			w()
		}
	}
}

// handleProgramFaults draws the program-fail outcome for every page of a
// completed write batch. A failed page retires its block; if the page
// still backs its LPN the mapping is undone and the write reissued to a
// fresh block — the bad-block remap path. The stale token left in the
// failed page is harmless: the mapping no longer points there and the
// block never returns to service.
func (f *FTL) handleProgramFaults(b chipBatch) {
	key := f.chipKey(b.id)
	for i, a := range b.ppas {
		if !f.faults.DrawFor(fault.ProgramFail, key) {
			continue
		}
		f.ras().ProgramFails++
		f.tel.Event("program-fail", f.eng.Now())
		f.retireBlock(b.id, a.Plane, a.Block)
		phys := physIndex(f.geo, f.ways, b.id, a)
		lpn := b.lpns[i]
		if f.p2l[phys] != lpn || f.l2p[lpn] != phys {
			// Superseded mid-flight by a host overwrite: the failed page
			// held no current data, retirement alone suffices.
			continue
		}
		f.ras().WriteRemaps++
		f.invalidatePhys(phys)
		f.l2p[lpn] = unmapped
		// Hold the in-flight reference across the reissue so a read of
		// this LPN cannot observe the unmapped window (or a stalled
		// reissue) and panic on an unmapped read.
		f.holdInflight(lpn)
		f.tryWrite([]int64{lpn}, []flash.Token{b.toks[i]}, nil, func() { f.releaseInflight(lpn) })
	}
}

// retireBlock permanently removes a block from service after a program
// or erase failure: it is closed if open, pulled from the free pool, and
// marked bad so no allocator ever hands it out again. Valid pages remain
// readable; GC migrates them off before the block reaches its terminal
// BlockRetired state.
func (f *FTL) retireBlock(id controller.ChipID, plane, block int) {
	ps := f.planeAt(id, plane)
	bi := &ps.blocks[block]
	if bi.bad {
		return
	}
	bi.bad = true
	if ps.active == block {
		ps.active = -1
	}
	if ps.gcActive == block {
		ps.gcActive = -1
	}
	ps.removeFree(block)
	// An open block closes as Full so GC can still select it and migrate
	// its remaining valid pages.
	if bi.state == BlockActive || bi.state == BlockFree {
		bi.state = BlockFull
	}
	if r := f.ras(); r != nil {
		r.RecordRetirement(f.chipKey(id))
	}
}

// invalidatePhys drops the valid count for a superseded physical page.
func (f *FTL) invalidatePhys(phys int64) {
	id, addr := physDecode(f.geo, f.ways, phys)
	ps := f.planeAt(id, addr.Plane)
	ps.blocks[addr.Block].validCount--
	if ps.blocks[addr.Block].validCount < 0 {
		panic("ftl: negative valid count")
	}
	f.p2l[phys] = unmapped
}

// retryStalled issues parked writes in FIFO order and stops at the first
// that still cannot allocate in full. That write and every one behind it
// stay parked in order: the host-write filter does not depend on the
// write, and a failed scan visits every slot once and leaves the cursor
// where it started, so each write behind it would fail the same way.
func (f *FTL) retryStalled() {
	for len(f.stalled) > 0 {
		w := f.stalled[0]
		var issued bool
		if w.lpns, w.toks, issued = f.issueWrite(w.lpns, w.toks, w.att, w.done); !issued {
			if !f.gcActive && f.cfg.GCMode != GCNone {
				f.startGC(nil)
			}
			return
		}
		f.stalled[0] = nil
		f.stalled = f.stalled[1:]
		f.trc.EndSpan(w.span)
	}
}

// CheckConsistency validates l2p/p2l agreement and valid-count accounting;
// tests call it after workloads and GC churn.
func (f *FTL) CheckConsistency() error {
	free := 0
	for _, ps := range f.planes {
		free += len(ps.free)
	}
	if free != f.freeBlocks {
		return fmt.Errorf("ftl: free-block counter %d, but the planes hold %d erased blocks", f.freeBlocks, free)
	}
	validByBlock := make(map[int64]int32)
	for lpn, phys := range f.l2p {
		if phys == unmapped {
			continue
		}
		if f.p2l[phys] != int64(lpn) {
			return fmt.Errorf("ftl: l2p[%d]=%d but p2l=%d", lpn, phys, f.p2l[phys])
		}
		id, addr := physDecode(f.geo, f.ways, phys)
		chipIdx := int64(id.Channel*f.ways+id.Way)*int64(f.geo.Planes) + int64(addr.Plane)
		validByBlock[chipIdx*int64(f.geo.BlocksPerPlane)+int64(addr.Block)]++
	}
	for pi, ps := range f.planes {
		for b := range ps.blocks {
			want := validByBlock[int64(pi)*int64(f.geo.BlocksPerPlane)+int64(b)]
			if ps.blocks[b].validCount != want {
				return fmt.Errorf("ftl: plane %d block %d validCount=%d, mapped=%d", pi, b, ps.blocks[b].validCount, want)
			}
			if ps.blocks[b].bad {
				if ps.active == b || ps.gcActive == b {
					return fmt.Errorf("ftl: plane %d retired block %d is an open allocation target", pi, b)
				}
				for _, fb := range ps.free {
					if fb == b {
						return fmt.Errorf("ftl: plane %d retired block %d in free pool", pi, b)
					}
				}
				if ps.blocks[b].state == BlockFree {
					return fmt.Errorf("ftl: plane %d retired block %d marked free", pi, b)
				}
			}
		}
	}
	return nil
}

// WearStats summarizes block erase counts across the device — the P/E
// cycle distribution whose uniformity the SpGC group swap protects
// (Sec VI-A: groups alternate "to uniformly increase the age of the
// flash memory").
type WearStats struct {
	MinErase  int
	MaxErase  int
	MeanErase float64
	// PerWay is the mean erase count per way-column, exposing any
	// systematic imbalance between the two SpGC groups.
	PerWay []float64
}

// Wear computes the device's current wear statistics from the chips' P/E
// counters.
func (f *FTL) Wear() WearStats {
	ws := WearStats{MinErase: int(^uint(0) >> 1)}
	perWay := make([]float64, f.ways)
	perWayBlocks := make([]int, f.ways)
	var total, blocks int
	f.fab.Grid().ForEach(func(id controller.ChipID, c *flash.Chip) {
		for plane := 0; plane < f.geo.Planes; plane++ {
			for b := 0; b < f.geo.BlocksPerPlane; b++ {
				e := c.EraseCount(plane, b)
				total += e
				blocks++
				perWay[id.Way] += float64(e)
				perWayBlocks[id.Way]++
				if e < ws.MinErase {
					ws.MinErase = e
				}
				if e > ws.MaxErase {
					ws.MaxErase = e
				}
			}
		}
	})
	if blocks > 0 {
		ws.MeanErase = float64(total) / float64(blocks)
	}
	ws.PerWay = perWay
	for w := range ws.PerWay {
		if perWayBlocks[w] > 0 {
			ws.PerWay[w] /= float64(perWayBlocks[w])
		}
	}
	if blocks == 0 {
		ws.MinErase = 0
	}
	return ws
}

// GroupWearGap returns the relative gap between the mean wear of the two
// way-halves: |lo - hi| / max(lo, hi), zero when perfectly level.
func (ws WearStats) GroupWearGap() float64 {
	n := len(ws.PerWay)
	if n < 2 {
		return 0
	}
	var lo, hi float64
	for w, v := range ws.PerWay {
		if w < n/2 {
			lo += v
		} else {
			hi += v
		}
	}
	max := lo
	if hi > max {
		max = hi
	}
	if max == 0 {
		return 0
	}
	diff := lo - hi
	if diff < 0 {
		diff = -diff
	}
	return diff / max
}
