package controller

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// OmnibusFabric is the pnSSD interconnect (Fig 9(c)): the packetized
// bandwidth is partitioned into an 8-bit h-channel per row and an 8-bit
// v-channel per column, with channel controller k driving both h-channel
// k and v-channel k. Data-plane movement between chips happens on the
// v-channels; the control plane runs between controllers over the SoC
// interconnect with the source/destination/intermediate roles of Fig 11.
//
// I/O reads return over whichever of the chip's two buses is less loaded
// (the paper's greedy adaptive choice), or over both at once when split
// transfers are enabled. GC page copies between chips in the same column
// use only that column's v-channel — the property Spatial GC exploits.
type OmnibusFabric struct {
	eng      *sim.Engine
	name     string
	grid     *Grid
	soc      *Soc
	pageSize int
	split    bool

	h      []*bus.Channel
	v      []*bus.Channel
	hIface []bus.Packetized
	vIface []bus.Packetized

	// colsPerV is how many adjacent way-columns share one v-channel. It is
	// 1 in the square organization; in a wide organization (more ways than
	// channels) each controller's single v-channel must interconnect
	// Ways/Channels columns (Sec V-E). In a tall organization (more
	// channels than ways) there is one v-channel per way and the surplus
	// controllers drive only their h-channel.
	colsPerV int

	// route selects the I/O path policy; GC copies always use v-channels.
	route RoutePolicy

	// faults supplies deterministic interconnect fault draws: on-die ECC
	// fallbacks for direct copies (Sec VIII hybrid ECC), lost
	// request/grant exchanges, and whole-v-channel kill-switches that
	// force degraded-mode routing. Nil means no injection.
	faults       *fault.Injector
	eccFallbacks int64

	// trc records logical spans (grant arbitration, copies) and routing
	// instants; nil (the default) disables tracing with no overhead.
	trc *trace.Recorder

	// tel feeds the grant-wait time series; nil (the default) disables
	// telemetry with no overhead.
	tel *telemetry.Collector

	// check receives routing decisions for GC copies; nil (the default)
	// disables checking with no overhead.
	check CopyChecker

	// counters for reports and tests
	hReturns, vReturns, splitReturns int64
	directCopies, relayedCopies      int64

	ops sim.FreeList[omniOp]
}

// NewOmnibusFabric builds the Omnibus fabric. Table II: 8 h-channels and
// 8 v-channels, all 8 bits at the base rate. split enables the
// half-page-per-path transfer technique of Sec V-C.
func NewOmnibusFabric(eng *sim.Engine, name string, grid *Grid, soc *Soc, pageSize, widthBits, rateMTps int, split bool) *OmnibusFabric {
	return NewOmnibusFabricAsym(eng, name, grid, soc, pageSize, widthBits, widthBits, rateMTps, split)
}

// NewOmnibusFabricAsym builds an Omnibus fabric with different h- and
// v-channel widths, for the bandwidth-partitioning ablation (how much of
// the packetized 16-bit budget to give the vertical dimension).
func NewOmnibusFabricAsym(eng *sim.Engine, name string, grid *Grid, soc *Soc, pageSize, hWidthBits, vWidthBits, rateMTps int, split bool) *OmnibusFabric {
	// One v-channel per controller, but never more than one per column:
	// numV = min(channels, ways); wide grids share each v-channel across
	// ways/channels adjacent columns.
	numV := grid.Channels
	if grid.Ways < numV {
		numV = grid.Ways
	}
	colsPerV := (grid.Ways + numV - 1) / numV
	f := &OmnibusFabric{
		eng:      eng,
		name:     name,
		grid:     grid,
		soc:      soc,
		pageSize: pageSize,
		split:    split,
		h:        make([]*bus.Channel, grid.Channels),
		v:        make([]*bus.Channel, numV),
		hIface:   make([]bus.Packetized, grid.Channels),
		vIface:   make([]bus.Packetized, numV),
		colsPerV: colsPerV,
		route:    RouteGreedy,
	}
	f.ops = sim.NewFreeList(recordPoolCap, f.newOp)
	for ch := 0; ch < grid.Channels; ch++ {
		f.h[ch] = bus.NewChannel(eng, fmt.Sprintf("%s/h%d", name, ch), hWidthBits, rateMTps)
		f.hIface[ch] = bus.NewPacketized(f.h[ch])
	}
	for i := 0; i < numV; i++ {
		f.v[i] = bus.NewChannel(eng, fmt.Sprintf("%s/v%d", name, i), vWidthBits, rateMTps)
		f.vIface[i] = bus.NewPacketized(f.v[i])
	}
	return f
}

// vIndex maps a way-column to the v-channel that serves it.
func (f *OmnibusFabric) vIndex(way int) int { return way / f.colsPerV }

// NumVChannels returns the number of v-channels in the organization.
func (f *OmnibusFabric) NumVChannels() int { return len(f.v) }

// ColumnsPerVChannel returns how many way-columns share one v-channel.
func (f *OmnibusFabric) ColumnsPerVChannel() int { return f.colsPerV }

// Name implements Fabric.
func (f *OmnibusFabric) Name() string { return f.name }

// Lookahead implements Fabric. Omnibus channel groups coordinate both
// through the ECC pipeline in front of the SoC and through control-plane
// request/grant messages, so the bound is the smaller of the two. The
// control-plane sensitivity ablation can drive CtrlMsgLatency, and with
// it the bound, to zero.
func (f *OmnibusFabric) Lookahead() sim.Time {
	if d := f.soc.CtrlMsgLatency(); d < EccLatency {
		return d
	}
	return EccLatency
}

// Grid implements Fabric.
func (f *OmnibusFabric) Grid() *Grid { return f.grid }

// HChannel returns the h-channel for a row, for instrumentation.
func (f *OmnibusFabric) HChannel(ch int) *bus.Channel { return f.h[ch] }

// VChannel returns the v-channel serving a way-column, for
// instrumentation.
func (f *OmnibusFabric) VChannel(w int) *bus.Channel { return f.v[f.vIndex(w)] }

// RoutePolicy selects how host transfers choose between a chip's
// h-channel and v-channel.
type RoutePolicy int

// Routing policies.
const (
	// RouteHOnly disables path diversity: every host transfer uses the
	// h-channel (ablation baseline).
	RouteHOnly RoutePolicy = iota
	// RouteGreedy is the paper's policy: the first available channel wins
	// (h preferred; v only when h is busy and v idle).
	RouteGreedy
	// RouteJSQ is the "intelligent adaptive algorithm" the paper leaves
	// as future work: join the shorter queue, counting occupancy.
	RouteJSQ
)

// String names the policy.
func (p RoutePolicy) String() string {
	switch p {
	case RouteHOnly:
		return "h-only"
	case RouteGreedy:
		return "greedy"
	case RouteJSQ:
		return "jsq"
	default:
		return fmt.Sprintf("route(%d)", int(p))
	}
}

// SetRoutePolicy selects the I/O routing policy.
func (f *OmnibusFabric) SetRoutePolicy(p RoutePolicy) { f.route = p }

// SetAdaptive toggles path diversity for host I/O: false forces h-only,
// true restores the default greedy policy.
func (f *OmnibusFabric) SetAdaptive(on bool) {
	if on {
		f.route = RouteGreedy
	} else {
		f.route = RouteHOnly
	}
}

// SetTracer attaches a trace recorder for control-plane spans and
// routing-decision instants; nil (the default) detaches.
func (f *OmnibusFabric) SetTracer(t *trace.Recorder) { f.trc = t }

// SetTelemetry attaches a telemetry collector recording grant-wait
// intervals and grant-drop events; nil (the default) detaches.
func (f *OmnibusFabric) SetTelemetry(c *telemetry.Collector) { f.tel = c }

// CopyChecker receives one notification per GC copy when its route is
// decided: direct reports whether the copy takes the flash-to-flash
// v-channel path (true) or the controller-relayed h-channel path (false).
// The invariant checker uses it to assert that direct copies stay within
// one v-channel column.
type CopyChecker interface {
	CopyRouted(src, dst ChipID, direct bool)
}

// SetChecker attaches a copy-route checker; nil (the default) detaches.
func (f *OmnibusFabric) SetChecker(c CopyChecker) { f.check = c }

// SetFaultInjector attaches the shared fault injector. Nil detaches it.
func (f *OmnibusFabric) SetFaultInjector(inj *fault.Injector) { f.faults = inj }

// FaultInjector returns the attached injector (possibly nil).
func (f *OmnibusFabric) FaultInjector() *fault.Injector { return f.faults }

// ensureFaults returns the fabric's injector, creating a default one (no
// faults enabled) on first use so rate setters work standalone.
func (f *OmnibusFabric) ensureFaults() *fault.Injector {
	if f.faults == nil {
		f.faults = fault.New(fault.Config{Seed: 1})
	}
	return f.faults
}

// SetOnDieEccFailRate sets the probability that a direct flash-to-flash
// copy fails its on-die error check and falls back to the
// controller-relayed strong-ECC path. It is a convenience wrapper over
// the fault injector's OnDieECC class.
func (f *OmnibusFabric) SetOnDieEccFailRate(rate float64) {
	if rate < 0 || rate > 1 {
		panic("controller: ECC fail rate outside [0,1]")
	}
	f.ensureFaults().SetRate(fault.OnDieECC, rate)
}

// EccFallbacks returns how many direct copies re-routed through the
// controller because the on-die check flagged them.
func (f *OmnibusFabric) EccFallbacks() int64 { return f.eccFallbacks }

// eccFails draws the next deterministic on-die ECC outcome.
func (f *OmnibusFabric) eccFails() bool {
	return f.faults.Draw(fault.OnDieECC)
}

// vDead reports whether the v-channel serving a way-column is
// kill-switched; degraded-mode routing must avoid it.
func (f *OmnibusFabric) vDead(way int) bool {
	return f.faults.VChannelDead(f.vIndex(way))
}

// routeToV reports whether a host transfer should take the v-channel.
func (f *OmnibusFabric) routeToV(hch, vch *bus.Channel) bool {
	switch f.route {
	case RouteHOnly:
		return false
	case RouteGreedy:
		return hch.Load() > 0 && vch.Load() == 0
	case RouteJSQ:
		return vch.Load() < hch.Load()
	default:
		return false
	}
}

// PathCounts returns how many read returns used the h path, the v path,
// and split transfers, plus direct vs controller-relayed GC copies.
func (f *OmnibusFabric) PathCounts() (h, v, split, direct, relayed int64) {
	return f.hReturns, f.vReturns, f.splitReturns, f.directCopies, f.relayedCopies
}

// omniOp is one Omnibus read, write, erase or direct page copy in
// flight, a copy from its grant request on: its chip, the row's
// h-channel and the column's v-channel, its payload, and its stages as
// method values bound once when the record is built, so a transaction
// schedules no closures. A split transfer joins its two halves on a
// counter in the record. The record goes back to the fabric's free list
// before done can run.
type omniOp struct {
	f          *OmnibusFabric
	id         ChipID
	hch, vch   *bus.Channel
	hifc, vifc bus.Packetized
	chip       *flash.Chip
	n          int
	addrs      []flash.PPA
	writes     []flash.ProgramOp
	done       func()

	// remaining counts the halves of a split transfer still on a bus;
	// joined runs when both have landed.
	remaining int
	joined    func()
	// The v-channel leg of a transfer, held across the two control
	// messages that hand it to the column's controller.
	vLabel string
	vDur   sim.Time
	vNext  func()

	// A direct copy's destination: the chip, the V-page register granted
	// to it, the target page, and the token read from the source.
	dst     ChipID
	dstChip *flash.Chip
	reg     int
	to      flash.PPA
	token   flash.Token
	// The copy's grant arbitration: lost exchanges so far, when it
	// began, the backoff spent, and its trace span.
	attempts  int
	arbStart  sim.Time
	waited    sim.Time
	grantSpan trace.SpanID

	readCmdFn, returnFn, finishFn, readEccFn    func()
	writeSocFn, writeEccFn, programFn           func()
	joinFn, vHop1Fn, vHop2Fn, eraseCmdFn        func()
	arbitrateFn, requestFn, statusFn, grantedFn func()
	reservedFn                                  func(reg int)
	dReadCmdFn, dReadDoneFn, dXferFn, dCommitFn func()
}

func (f *OmnibusFabric) newOp() *omniOp {
	r := &omniOp{f: f}
	r.readCmdFn = r.readCmd
	r.returnFn = r.returnData
	r.finishFn = r.finish
	r.readEccFn = r.readEcc
	r.writeSocFn = r.writeSoc
	r.writeEccFn = r.writeEcc
	r.programFn = r.program
	r.joinFn = r.join
	r.vHop1Fn = r.vHop1
	r.vHop2Fn = r.vHop2
	r.eraseCmdFn = r.eraseCmd
	r.arbitrateFn = r.arbitrate
	r.requestFn = r.request
	r.statusFn = r.status
	r.reservedFn = r.reserved
	r.grantedFn = r.granted
	r.dReadCmdFn = r.dReadCmd
	r.dReadDoneFn = r.dReadDone
	r.dXferFn = r.dXfer
	r.dCommitFn = r.dCommit
	return r
}

// op takes a record for a transaction on chip id.
func (f *OmnibusFabric) op(id ChipID, n int, done func()) *omniOp {
	r := f.ops.Get()
	r.chip = f.grid.Chip(id)
	v := f.vIndex(id.Way)
	r.id, r.n, r.done = id, n, done
	r.hch, r.hifc = f.h[id.Channel], f.hIface[id.Channel]
	r.vch, r.vifc = f.v[v], f.vIface[v]
	return r
}

// recycle returns the record to the free list and hands back its done.
func (r *omniOp) recycle() func() {
	done := r.done
	r.done, r.joined, r.vNext = nil, nil, nil
	r.f.ops.Put(r)
	return done
}

// Read implements Fabric. The command always issues on the h-channel (the
// row controller owns the chip); the data return path is adaptive or
// split.
func (f *OmnibusFabric) Read(id ChipID, ppas []flash.PPA, done func()) {
	r := f.op(id, totalBytes(f.pageSize, len(ppas)), done)
	r.addrs = append(r.addrs[:0], ppas...)
	r.hch.UseOp("read-cmd", r.hifc.ReadCmd(), r.readCmdFn)
}

func (r *omniOp) readCmd() { r.chip.Read(r.addrs, r.returnFn) }

// returnData moves the read's n bytes from the chip's page registers
// into DRAM over the chosen path(s).
func (r *omniOp) returnData() {
	f, id, n := r.f, r.id, r.n
	if f.vDead(id.Way) {
		// Degraded mode: the column's v-channel is dead, so path diversity
		// collapses and the whole payload returns over the row's h-channel
		// — the failover the paper's path redundancy makes possible.
		if ras := f.faults.RAS(); ras != nil {
			ras.DegradedReturns++
		}
		f.hReturns++
		if f.trc.Enabled() {
			f.trc.Instant("route", "degraded-h", trace.KV{K: "chip", V: id.String()})
		}
		r.hch.UseOp("read-xfer", r.hifc.ReadXfer(n), r.finishFn)
		return
	}
	if f.split && n > 1 && r.hch.Load() == 0 && r.vch.Load() == 0 {
		// Half the payload on each bus; the v half first traverses the
		// control plane so controller[way] drives its v-channel (one
		// request/grant exchange). Splitting pays only when both buses
		// can start immediately — if either is queued, pinning half the
		// page behind that queue is worse than routing the whole page
		// adaptively, so loaded cases fall through to the greedy path.
		f.splitReturns++
		if f.trc.Enabled() {
			f.trc.Instant("route", "split-return", trace.KV{K: "chip", V: id.String()})
		}
		half1, half2 := n/2, n-n/2
		r.remaining, r.joined = 2, r.finishFn
		r.hch.UseOp("read-xfer-half", r.hifc.ReadXfer(half1), r.joinFn)
		r.viaV("read-xfer-half", r.vifc.ReadXfer(half2), r.joinFn)
		return
	}
	// Greedy adaptive, as in the paper: the first *available* channel is
	// used — h when it is free, the v-channel when h is busy but v is
	// free, and the default h queue when both are busy. The paper notes
	// this can make non-optimal decisions; split transfers recover the
	// unused capacity.
	if f.routeToV(r.hch, r.vch) {
		f.vReturns++
		if f.trc.Enabled() {
			f.trc.Instant("route", "v-return", trace.KV{K: "chip", V: id.String()})
		}
		r.viaV("read-xfer", r.vifc.ReadXfer(n), r.finishFn)
		return
	}
	f.hReturns++
	r.hch.UseOp("read-xfer", r.hifc.ReadXfer(n), r.finishFn)
}

// finish starts the controller ECC once the whole page has landed.
func (r *omniOp) finish() { r.f.eng.Schedule(EccLatency, r.readEccFn) }

func (r *omniOp) readEcc() {
	soc, n := r.f.soc, r.n
	soc.Transfer(n, r.recycle())
}

// join counts one half of a split transfer in and runs joined after the
// second.
func (r *omniOp) join() {
	r.remaining--
	if r.remaining == 0 {
		r.joined()
	}
}

// viaV sends a transfer leg of duration d over the column's v-channel:
// two control messages hand the leg to the controller driving that
// v-channel, which then holds it for d and runs next.
func (r *omniOp) viaV(label string, d sim.Time, next func()) {
	r.vLabel, r.vDur, r.vNext = label, d, next
	r.f.soc.CtrlMsg(r.vHop1Fn)
}

func (r *omniOp) vHop1() { r.f.soc.CtrlMsg(r.vHop2Fn) }

func (r *omniOp) vHop2() { r.vch.UseOp(r.vLabel, r.vDur, r.vNext) }

// Write implements Fabric. Payload delivery mirrors the read return path:
// split across h and v when enabled, otherwise greedy adaptive.
func (f *OmnibusFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	r := f.op(id, totalBytes(f.pageSize, len(ops)), done)
	r.writes = append(r.writes[:0], ops...)
	f.soc.Transfer(r.n, r.writeSocFn)
}

func (r *omniOp) writeSoc() { r.f.eng.Schedule(EccLatency, r.writeEccFn) }

// writeEcc delivers the payload to the chip once it has passed ECC.
func (r *omniOp) writeEcc() {
	f, n := r.f, r.n
	if f.vDead(r.id.Way) {
		// Degraded mode: deliver the whole payload on the h-channel.
		if ras := f.faults.RAS(); ras != nil {
			ras.DegradedReturns++
		}
		r.hch.UseOp("program-xfer", r.hifc.ProgramXfer(n), r.programFn)
		return
	}
	// Split applies to read returns only. Splitting program
	// payloads couples every write to its column's v-channel, and
	// with way-striped allocation policies consecutive writes
	// share one column — the v-channel becomes a serial hotspot
	// that costs far more than the halved serialization saves.
	// Write payloads route adaptively instead; when both buses are
	// idle the split variant still sends halves down both.
	if f.split && n > 1 && r.hch.Load() == 0 && r.vch.Load() == 0 {
		half1, half2 := n/2, n-n/2
		r.remaining, r.joined = 2, r.programFn
		r.hch.UseOp("program-xfer-half", r.hifc.ProgramXfer(half1), r.joinFn)
		r.viaV("program-xfer-half", r.vifc.ProgramXfer(half2), r.joinFn)
		return
	}
	if f.routeToV(r.hch, r.vch) {
		r.viaV("program-xfer", r.vifc.ProgramXfer(n), r.programFn)
		return
	}
	r.hch.UseOp("program-xfer", r.hifc.ProgramXfer(n), r.programFn)
}

func (r *omniOp) program() {
	r.chip.Program(r.writes, r.done)
	r.recycle()
}

// Erase implements Fabric: a single control packet on the h-channel.
func (f *OmnibusFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	r := f.op(id, 0, done)
	r.addrs = append(r.addrs[:0], blocks...)
	r.hch.UseOp("erase-cmd", r.hifc.EraseCmd(), r.eraseCmdFn)
}

func (r *omniOp) eraseCmd() {
	r.chip.Erase(r.addrs, r.done)
	r.recycle()
}

// Copy implements Fabric. Same-column copies move directly over the
// column's v-channel: read command and transfer command both issue on the
// v-channel (driven by its owner controller, which may be the source,
// destination, or an intermediate controller per Fig 11), the payload
// crosses the v-channel exactly once into the destination's V-page
// register, and an on-die commit programs it — no h-channel, controller
// ECC, or DRAM involvement. Cross-column copies fall back to the
// controller-relayed route over the h-channels.
func (f *OmnibusFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	if f.vIndex(src.Way) != f.vIndex(dst.Way) {
		f.relayedCopies++
		if f.check != nil {
			f.check.CopyRouted(src, dst, false)
		}
		f.relayCopy(src, from, dst, to, done)
		return
	}
	if f.vDead(src.Way) {
		// Degraded mode: the column's v-channel is dead, so the SpGC
		// direct path is unavailable and the copy falls back to the
		// controller-relayed route over the rows' h-channels.
		if r := f.faults.RAS(); r != nil {
			r.DeadVCopies++
		}
		f.relayedCopies++
		if f.check != nil {
			f.check.CopyRouted(src, dst, false)
		}
		f.relayCopy(src, from, dst, to, done)
		return
	}
	if f.eccFails() {
		// Hybrid ECC (Sec VIII): the weak on-die detector flagged this
		// page; only the controller's LDPC can correct it, so the copy
		// takes the relayed route through the strong-ECC engine.
		f.eccFallbacks++
		if r := f.faults.RAS(); r != nil {
			r.OnDieECCFallbacks++
		}
		f.relayedCopies++
		if f.check != nil {
			f.check.CopyRouted(src, dst, false)
		}
		f.relayCopy(src, from, dst, to, done)
		return
	}
	r := f.op(src, f.pageSize, done)
	r.dst, r.dstChip, r.to = dst, f.grid.Chip(dst), to
	r.addrs = append(r.addrs[:0], from)

	// Control plane (Fig 11): the source's controller requests the
	// v-channel owner, the owner checks the destination's buffer status,
	// and the grant comes back — three one-way messages. The V-page
	// register is reserved at grant time; if none is free, the request
	// parks at the destination chip and the grant leaves when a commit
	// frees a register for it. An injected GrantDrop loses the exchange:
	// the source controller times out after GrantTimeout<<attempt and
	// re-requests, and when the retry budget is exhausted it fails over
	// to the controller-relayed path — a grant is never awaited forever.
	r.attempts, r.arbStart, r.waited = 0, f.eng.Now(), 0
	r.grantSpan = trace.SpanID{}
	if f.trc.Enabled() {
		r.grantSpan = f.trc.BeginSpan("gc", "grant-wait",
			trace.KV{K: "src", V: src.String()}, trace.KV{K: "dst", V: dst.String()})
	}
	r.arbitrate()
}

// arbitrate sends a copy's request to the v-channel owner.
func (r *omniOp) arbitrate() { r.f.soc.CtrlMsg(r.requestFn) }

// request runs when the request reaches the v-channel owner: unless the
// exchange is lost, the owner asks the destination's controller for
// buffer status.
func (r *omniOp) request() {
	f := r.f
	if !f.faults.Draw(fault.GrantDrop) {
		f.soc.CtrlMsg(r.statusFn)
		return
	}
	ras := f.faults.RAS()
	ras.GrantDrops++
	f.tel.Event("grant-drop", f.eng.Now())
	cfg := f.faults.Config()
	r.attempts++
	backoff := cfg.GrantTimeout << uint(r.attempts-1)
	// The ladder is doubly bounded: by retry count and by the
	// cumulative backoff-time budget. Either bound exhausting
	// fails the copy over to the relay path; a budget-triggered
	// failover (the count alone would have kept retrying) is
	// tallied separately so the report distinguishes "gave up
	// after N tries" from "ran out of time".
	if r.attempts > cfg.GrantRetryMax || r.waited+backoff > cfg.GrantBackoffBudget {
		if r.attempts <= cfg.GrantRetryMax {
			ras.GrantBudgetExhausted++
		}
		ras.CopyFailovers++
		f.relayedCopies++
		if f.check != nil {
			f.check.CopyRouted(r.id, r.dst, false)
		}
		f.trc.EndSpan(r.grantSpan)
		f.tel.GrantWait(r.arbStart, f.eng.Now())
		src, from, dst, to := r.id, r.addrs[0], r.dst, r.to
		f.relayCopy(src, from, dst, to, r.recycle())
		return
	}
	ras.GrantRetries++
	r.waited += backoff
	f.eng.Schedule(backoff, r.arbitrateFn)
}

// status is the buffer-status check at the destination's controller: it
// waits for a free V-page register there.
func (r *omniOp) status() { r.dstChip.WaitVPage(r.reservedFn) }

// reserved runs with the V-page register claimed for the copy and sends
// the grant back to the source's controller.
func (r *omniOp) reserved(reg int) {
	r.reg = reg
	r.f.soc.CtrlMsg(r.grantedFn)
}

// granted starts the data-plane half of a same-column copy: tR on the
// source, one v-channel crossing, on-die ECC, tPROG from the V-page
// register on the destination.
func (r *omniOp) granted() {
	f := r.f
	f.directCopies++
	if f.check != nil {
		f.check.CopyRouted(r.id, r.dst, true)
	}
	f.trc.EndSpan(r.grantSpan)
	f.tel.GrantWait(r.arbStart, f.eng.Now())
	if f.trc.Enabled() {
		sp := f.trc.BeginSpan("gc", "direct-copy",
			trace.KV{K: "src", V: r.id.String()}, trace.KV{K: "dst", V: r.dst.String()})
		done := r.done
		r.done = func() {
			f.trc.EndSpan(sp)
			if done != nil {
				done()
			}
		}
	}
	r.vch.UseOp("gc-read-cmd", r.vifc.ReadCmd(), r.dReadCmdFn)
}

func (r *omniOp) dReadCmd() { r.chip.Read(r.addrs, r.dReadDoneFn) }

func (r *omniOp) dReadDone() {
	r.token = r.chip.PageRegister(r.addrs[0].Plane)
	r.vch.UseOp("gc-vxfer", r.vifc.VXfer(r.f.pageSize), r.dXferFn)
}

func (r *omniOp) dXfer() {
	r.dstChip.SetVPage(r.reg, r.token)
	r.f.eng.Schedule(OnDieEccLatency, r.dCommitFn)
}

func (r *omniOp) dCommit() {
	r.dstChip.ProgramFromVPage(r.reg, r.to, r.done)
	r.recycle()
}

// relayCopy is the cross-column fallback: read through the source row's
// h-channel into DRAM, then write out through the destination row's
// h-channel — the Fig 10(a) route.
func (f *OmnibusFabric) relayCopy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	if f.trc.Enabled() {
		sp := f.trc.BeginSpan("gc", "relay-copy",
			trace.KV{K: "src", V: src.String()}, trace.KV{K: "dst", V: dst.String()})
		inner := done
		done = func() {
			f.trc.EndSpan(sp)
			if inner != nil {
				inner()
			}
		}
	}
	hch := f.h[src.Channel]
	hifc := f.hIface[src.Channel]
	srcChip := f.grid.Chip(src)
	n := f.pageSize
	hch.UseOp("gc-read-cmd", hifc.ReadCmd(), func() {
		srcChip.Read([]flash.PPA{from}, func() {
			token := srcChip.PageRegister(from.Plane)
			hch.UseOp("gc-read-xfer", hifc.ReadXfer(n), func() {
				f.eng.Schedule(EccLatency, func() {
					f.soc.Transfer(n, func() {
						f.Write(dst, []flash.ProgramOp{{Addr: to, Token: token}}, done)
					})
				})
			})
		})
	})
}
