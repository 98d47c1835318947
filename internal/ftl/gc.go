package ftl

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/trace"
)

// maybeTriggerGC starts a collection round when free space is below the
// threshold and no round is running.
func (f *FTL) maybeTriggerGC() {
	if f.gcActive || f.cfg.GCMode == GCNone {
		return
	}
	if f.FreeBlockFraction() >= f.cfg.GCThreshold {
		return
	}
	f.startGC(nil)
}

// TriggerGC forces a collection round immediately (experiments use this to
// study interference); done fires when the round completes. It panics if a
// round is already active.
func (f *FTL) TriggerGC(done func()) {
	if f.gcActive {
		panic("ftl: TriggerGC during active GC")
	}
	if f.cfg.GCMode == GCNone {
		panic("ftl: TriggerGC with GC disabled")
	}
	f.startGC(done)
}

// victim identifies one block chosen for collection.
type victim struct {
	id    controller.ChipID
	plane int
	block int
}

// inGCGroup reports whether a way belongs to the current GC group under
// SpGC. Groups swap every round to level wear (Fig 12(c)).
func (f *FTL) inGCGroup(way int) bool {
	boundary := int(float64(f.ways) * f.cfg.GCGroupFraction)
	if boundary <= 0 {
		boundary = 1
	}
	if boundary >= f.ways {
		boundary = f.ways - 1
	}
	if f.gcGroupLo {
		return way < boundary
	}
	return way >= f.ways-boundary
}

// gcParticipant reports whether a chip contributes victims this round.
func (f *FTL) gcParticipant(id controller.ChipID) bool {
	if f.cfg.GCMode != GCSpatial {
		return true
	}
	return f.inGCGroup(id.Way)
}

// selectVictims picks up to perChip victim blocks on every participating
// chip using the greedy minimum-valid policy. Only full blocks with no
// in-flight writes qualify.
func (f *FTL) selectVictims(perChip int) []victim {
	var victims []victim
	f.fab.Grid().ForEach(func(id controller.ChipID, _ *flash.Chip) {
		if !f.gcParticipant(id) {
			return
		}
		type cand struct {
			plane, block int
			valid        int32
			lastWrite    int64
		}
		var cands []cand
		for plane := 0; plane < f.geo.Planes; plane++ {
			ps := f.planeAt(id, plane)
			for b := range ps.blocks {
				bi := &ps.blocks[b]
				if bi.state == BlockFull && bi.inflight == 0 && !bi.mapOwned {
					cands = append(cands, cand{plane, b, bi.validCount, bi.lastWrite})
				}
			}
		}
		// Score candidates: greedy prefers the fewest valid pages;
		// cost-benefit maximizes (1-u)/(2u) * age. Lower score wins so
		// both policies share the selection loop; ties resolve by
		// (plane, block) scan order for determinism.
		now := float64(f.eng.Now())
		score := func(c cand) float64 {
			if f.cfg.Victim == VictimCostBenefit {
				u := float64(c.valid) / float64(f.geo.PagesPerBlock)
				if u >= 1 {
					return 0 // nothing reclaimable, maximal copy cost
				}
				age := now - float64(c.lastWrite) + 1
				// Maximize benefit/cost = (1-u)*age / 2u; lower score wins.
				return -(1 - u) * age / (2*u + 1e-9)
			}
			return float64(c.valid)
		}
		for k := 0; k < perChip && len(cands) > 0; k++ {
			best := 0
			bestScore := score(cands[0])
			for i := 1; i < len(cands); i++ {
				if sc := score(cands[i]); sc < bestScore {
					best, bestScore = i, sc
				}
			}
			c := cands[best]
			cands = append(cands[:best], cands[best+1:]...)
			victims = append(victims, victim{id: id, plane: c.plane, block: c.block})
			f.planeAt(id, c.plane).blocks[c.block].state = BlockErasing
		}
	})
	return victims
}

// startGC runs one collection round: select victims, migrate their valid
// pages, erase them, return them to the free pools.
func (f *FTL) startGC(done func()) {
	f.gcActive = true
	f.stats.GCRounds++
	started := f.eng.Now()
	f.tel.GCStarted(started)
	if f.trc.Enabled() {
		f.gcSpan = f.trc.BeginSpan("gc", "gc-round",
			trace.KV{K: "round", V: f.stats.GCRounds},
			trace.KV{K: "mode", V: f.cfg.GCMode.String()})
	}

	perChip := f.cfg.VictimsPerChip
	if f.cfg.GCMode == GCSpatial {
		// Only a fraction of the chips participate; scale victims per chip
		// so the total matches the baseline (Sec VII-A).
		perChip = int(float64(perChip)/f.cfg.GCGroupFraction + 0.5)
	}
	freeAtStart := f.totalFreeBlocks()
	victims := f.capVictims(f.selectVictims(perChip))
	if len(victims) == 0 {
		f.finishGC(started, freeAtStart, false, done)
		return
	}
	remaining := len(victims)
	for _, v := range victims {
		v := v
		f.collectVictim(v, func() {
			remaining--
			if remaining == 0 {
				f.finishGC(started, freeAtStart, true, done)
			}
		})
	}
}

// capVictims trims a round's victim set so that the pages its copies will
// consume fit in half the currently free space. Without the cap, a round
// on a nearly full device could have every victim stalled waiting for a
// destination while no erase is pending to free one. Dropped victims
// return to the Full state for later rounds.
func (f *FTL) capVictims(victims []victim) []victim {
	budget := int64(f.totalFreeBlocks()) * int64(f.geo.PagesPerBlock) / 2
	kept := victims[:0]
	for _, v := range victims {
		valid := int64(f.planeAt(v.id, v.plane).blocks[v.block].validCount)
		if valid > budget && len(kept) > 0 {
			f.planeAt(v.id, v.plane).blocks[v.block].state = BlockFull
			continue
		}
		budget -= valid
		kept = append(kept, v)
	}
	return kept
}

func (f *FTL) totalFreeBlocks() int { return f.freeBlocks }

func (f *FTL) finishGC(started sim.Time, freeAtStart int, hadVictims bool, done func()) {
	f.gcActive = false
	f.tel.GCFinished(f.eng.Now())
	dur := f.eng.Now() - started
	f.stats.GCTotalTime += dur
	f.stats.GCLastTime = dur
	if f.trc.Enabled() {
		f.trc.EndSpan(f.gcSpan,
			trace.KV{K: "pages_copied", V: f.stats.GCPagesCopied},
			trace.KV{K: "blocks_erased", V: f.stats.GCBlocksErased})
		f.gcSpan = trace.SpanID{}
	}
	if f.cfg.GCMode == GCSpatial {
		f.gcGroupLo = !f.gcGroupLo
	}
	// A zero-victim round fires no events and changes no allocation state,
	// so retrying stalled writes would re-stall them, restart GC, and recurse
	// without bound (every Full block can have programs in flight on a tiny
	// device). Leave them parked: each victim erase already retries, and the
	// commitWrite completion hook restarts GC once in-flight programs land.
	if hadVictims {
		f.retryStalled()
	}
	if done != nil {
		done()
	}
	// Space may still be short under heavy write pressure. Re-check on a
	// fresh event — but only when this round achieved a net free-block
	// gain. Near the device's compaction limit, rounds that free exactly
	// as many blocks as their copies consume would otherwise chain GC
	// forever; the next host write re-triggers instead.
	if f.totalFreeBlocks() > freeAtStart {
		f.eng.Schedule(0, f.maybeTriggerGC)
	}
}

// collectVictim migrates every valid page off one victim block, then
// erases it.
func (f *FTL) collectVictim(v victim, done func()) {
	// Snapshot the valid pages now; pages invalidated by host overwrites
	// mid-collection are re-checked at copy time.
	var pages []int
	base := physIndex(f.geo, f.ways, v.id, flash.PPA{Plane: v.plane, Block: v.block, Page: 0})
	for p := 0; p < f.geo.PagesPerBlock; p++ {
		if f.p2l[base+int64(p)] != unmapped {
			pages = append(pages, p)
		}
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(pages) {
			f.eraseVictim(v, done)
			return
		}
		proceed := func() {
			f.copyOnePage(v, pages[i], func() { step(i + 1) })
		}
		if f.cfg.GCMode == GCPreemptive {
			f.yieldToHost(proceed)
			return
		}
		proceed()
	}
	step(0)
}

// yieldToHost implements the semi-preemptive policy: between page copies,
// GC waits while host I/O is outstanding, polling until the device goes
// idle — unless free space is critically low, in which case it stops
// yielding (GC cannot be postponed indefinitely). Writes stalled on
// allocation never count as I/O worth yielding to: they cannot progress
// until GC frees space, so waiting on them would deadlock the device
// with free space sitting just above the critical floor.
func (f *FTL) yieldToHost(proceed func()) {
	critical := f.cfg.GCThreshold / 4
	var poll func()
	poll = func() {
		if f.outstanding == 0 || len(f.stalled) > 0 || f.FreeBlockFraction() < critical {
			proceed()
			return
		}
		f.eng.Schedule(10*sim.Microsecond, poll)
	}
	poll()
}

// copyOnePage migrates one page of a victim block if it is still valid.
func (f *FTL) copyOnePage(v victim, page int, done func()) {
	from := flash.PPA{Plane: v.plane, Block: v.block, Page: page}
	oldPhys := physIndex(f.geo, f.ways, v.id, from)
	lpn := f.p2l[oldPhys]
	if lpn == unmapped {
		// Host overwrote it since selection; nothing to move.
		done()
		return
	}
	dstChip, dstAddr, ok := f.allocGCDestination(v)
	if !ok {
		// Transient exhaustion: every free block is being consumed by
		// concurrent copies or host writes racing into the reserve. Other
		// victims' erases will free blocks; retry then.
		f.eng.Schedule(20*sim.Microsecond, func() { f.copyOnePage(v, page, done) })
		return
	}
	newPhys := physIndex(f.geo, f.ways, dstChip, dstAddr)
	dstPS := f.planeAt(dstChip, dstAddr.Plane)
	dstPS.blocks[dstAddr.Block].inflight++
	f.stats.GCPagesCopied++
	f.tel.GCCopied(f.eng.Now())
	f.fab.Copy(v.id, from, dstChip, dstAddr, func() {
		dstPS.blocks[dstAddr.Block].inflight--
		if f.faults.DrawFor(fault.ProgramFail, f.chipKey(dstChip)) {
			// The commit program at the destination failed its status
			// check: retire the destination block and retry the copy to a
			// fresh one. The source mapping never moved, so the page is
			// still intact on the victim.
			r := f.ras()
			r.ProgramFails++
			r.GCCopyRetries++
			f.retireBlock(dstChip, dstAddr.Plane, dstAddr.Block)
			f.copyOnePage(v, page, done)
			return
		}
		if f.p2l[oldPhys] == lpn && f.l2p[lpn] == oldPhys {
			// Still current: move the mapping.
			if f.p2l[newPhys] != unmapped {
				panic(fmt.Sprintf("ftl: GC copy double-maps phys %d (old lpn %d, new lpn %d)", newPhys, f.p2l[newPhys], lpn))
			}
			f.l2p[lpn] = newPhys
			f.p2l[newPhys] = lpn
			f.p2l[oldPhys] = unmapped
			f.planeAt(v.id, v.plane).blocks[v.block].validCount--
			dstPS.blocks[dstAddr.Block].validCount++
			if f.mapu != nil {
				f.mapu.noteUpdate(lpn)
			}
		}
		// Otherwise the host rewrote the LPN mid-copy; the copied page is
		// immediately garbage and stays invalid at the destination.
		done()
	})
}

// allocGCDestination picks the destination page for a GC copy. SpGC
// restricts destinations to the victim's own column (way) so copies move
// only over that column's v-channel (Sec VI-A); PaGC and preemptive GC
// allocate anywhere via the normal policy. If the same-column restriction
// cannot be satisfied, it widens to any GC-group chip.
func (f *FTL) allocGCDestination(v victim) (controller.ChipID, flash.PPA, bool) {
	pick := func(ok func(s slot) bool) (controller.ChipID, flash.PPA, bool) {
		// Prefer planes with a GC destination block already open so copies
		// stream sequentially into few blocks; only then open fresh ones.
		s, found := f.alloc.next(func(s slot) bool { return f.planeAt(s.chip, s.plane).gcOpen() && ok(s) })
		if !found {
			s, found = f.alloc.next(func(s slot) bool { return f.planeAt(s.chip, s.plane).hasGCSpace() && ok(s) })
		}
		if !found {
			return controller.ChipID{}, flash.PPA{}, false
		}
		ps := f.planeAt(s.chip, s.plane)
		block, page, err := ps.allocateGC()
		if err != nil {
			// Recoverable: a fault retired the last free block between the
			// hasGCSpace check and the allocation. The caller retries once
			// pending erases free space.
			return controller.ChipID{}, flash.PPA{}, false
		}
		return s.chip, flash.PPA{Plane: s.plane, Block: block, Page: page}, true
	}
	if f.cfg.GCMode == GCSpatial {
		if id, addr, ok := pick(func(s slot) bool { return s.chip.Way == v.id.Way }); ok {
			return id, addr, true
		}
		if id, addr, ok := pick(func(s slot) bool { return f.inGCGroup(s.chip.Way) }); ok {
			return id, addr, true
		}
		// Last resort: anywhere — correctness over isolation when the GC
		// group itself has no space left.
	}
	return pick(func(s slot) bool { return true })
}

// eraseVictim erases a fully migrated victim and returns it to the free
// pool. The erase waits for host reads still pinning the block — reads
// that mapped a page before its copy relocated it and are queued behind
// channel contention.
func (f *FTL) eraseVictim(v victim, done func()) {
	ps := f.planeAt(v.id, v.plane)
	if ps.blocks[v.block].validCount != 0 {
		// True invariant: collectVictim migrated every valid page before
		// calling here; a nonzero count is an accounting bug, not a fault.
		panic(fmt.Sprintf("ftl: erasing block with %d valid pages", ps.blocks[v.block].validCount))
	}
	if ps.blocks[v.block].readRefs > 0 {
		f.eng.Schedule(20*sim.Microsecond, func() { f.eraseVictim(v, done) })
		return
	}
	if ps.blocks[v.block].bad {
		// A block retired by an earlier program failure: its valid pages
		// are now migrated, so it leaves service for good — no erase, no
		// return to the free pool.
		ps.blocks[v.block].state = BlockRetired
		f.retryStalled()
		done()
		return
	}
	f.fab.Erase(v.id, []flash.PPA{{Plane: v.plane, Block: v.block}}, func() {
		if f.faults.DrawFor(fault.EraseFail, f.chipKey(v.id)) {
			// Erase status failed: the block retires instead of rejoining
			// the free pool.
			f.ras().EraseFails++
			f.tel.Event("erase-fail", f.eng.Now())
			f.retireBlock(v.id, v.plane, v.block)
			ps.blocks[v.block].state = BlockRetired
			f.retryStalled()
			done()
			return
		}
		ps.blocks[v.block].state = BlockFree
		ps.pushFree(v.block)
		f.stats.GCBlocksErased++
		f.retryStalled()
		done()
	})
}
