package controller

import (
	"fmt"
	"strings"

	"repro/internal/flash"
	"repro/internal/sim"
)

// SchedPolicy selects the controller's command scheduling policy — the
// Venice/Sprinkler-class alternatives to the paper's extra wires. FIFO
// is the historical behaviour: every transaction issues the moment the
// FTL hands it over and the per-resource queues do all the ordering.
type SchedPolicy int

// Scheduling policies.
const (
	// SchedFIFO issues transactions in arrival order with no deferral;
	// it is byte-identical to running without a scheduling layer.
	SchedFIFO SchedPolicy = iota
	// SchedConflict is Venice-style conflict-free path allocation:
	// before a (potentially split) read or a GC copy issues, its full
	// h-channel/v-channel/chip path is reserved in a conflict table, and
	// transactions whose path intersects an active reservation defer
	// until the holder releases.
	SchedConflict
	// SchedOOO is Sprinkler-style out-of-order scheduling: transactions
	// enter an inflight window and the scheduler repeatedly picks the
	// pending command that maximizes distinct-die utilization instead of
	// honouring arrival order, subject to a starvation bound.
	SchedOOO
)

// String names the policy as the CLI flags spell it.
func (p SchedPolicy) String() string {
	switch p {
	case SchedFIFO:
		return "fifo"
	case SchedConflict:
		return "conflict"
	case SchedOOO:
		return "ooo"
	default:
		return fmt.Sprintf("sched(%d)", int(p))
	}
}

// SchedPolicyNames lists the parseable policy names in enum order.
func SchedPolicyNames() []string { return []string{"fifo", "conflict", "ooo"} }

// ParseSchedPolicy resolves a policy name; the empty string is the FIFO
// default so an unset config knob means "today's behaviour".
func ParseSchedPolicy(name string) (SchedPolicy, error) {
	switch strings.ToLower(name) {
	case "", "fifo":
		return SchedFIFO, nil
	case "conflict":
		return SchedConflict, nil
	case "ooo":
		return SchedOOO, nil
	default:
		return SchedFIFO, fmt.Errorf("controller: unknown scheduler policy %q (want fifo, conflict, or ooo)", name)
	}
}

// SegKind classifies one segment of a reserved data path.
type SegKind int

// Path segment kinds.
const (
	SegH    SegKind = iota // an h-channel row bus
	SegV                   // a v-channel column bus
	SegChip                // a flash chip (die)
)

// String names the kind.
func (k SegKind) String() string {
	switch k {
	case SegH:
		return "h"
	case SegV:
		return "v"
	case SegChip:
		return "chip"
	default:
		return fmt.Sprintf("seg(%d)", int(k))
	}
}

// PathSeg is one reservable segment of an interconnect path: an
// h-channel (Index = channel row), a v-channel (Index = v-channel
// number), or a chip (Index = channel*ways + way).
type PathSeg struct {
	Kind  SegKind
	Index int
}

// String renders "h3"/"v1"/"chip12"-style names.
func (s PathSeg) String() string { return fmt.Sprintf("%s%d", s.Kind, s.Index) }

// SchedChecker receives scheduling-layer notifications so the invariant
// checker can audit the reservation ledger and reorder-window legality.
// All hooks fire synchronously at the decision point.
type SchedChecker interface {
	// SchedReserved reports that op reserved the given path segments.
	SchedReserved(op uint64, segs []PathSeg)
	// SchedReleased reports that op released its path segments.
	SchedReleased(op uint64, segs []PathSeg)
	// SchedIssued reports that op issued to the inner fabric: rank is
	// its position among pending transactions in arrival order (0 = the
	// oldest), window the reorder-window size the pick had to respect
	// (0 = unwindowed policy), bypassed how many times the op was passed
	// over while pending, and bound the configured starvation bound.
	SchedIssued(op uint64, rank, window, bypassed, bound int)
	// SchedCompleted reports that op's completion callback ran;
	// inflight is the scheduler's remaining inflight count.
	SchedCompleted(op uint64, inflight int)
}

// SchedConfig tunes a scheduling policy. The zero value selects the
// defaults.
type SchedConfig struct {
	// Window is the out-of-order inflight window: at most this many
	// transactions run concurrently, and only the oldest Window pending
	// transactions are eligible for reordering. 1 degenerates to FIFO
	// issue order. Default 16.
	Window int
	// ReorderBound caps starvation: a pending transaction bypassed this
	// many times is issued next regardless of score (out-of-order), and
	// a deferred head bypassed this many times freezes further
	// admissions until it proceeds (conflict). Default 64.
	ReorderBound int
}

// DefaultSchedWindow and DefaultReorderBound are the SchedConfig
// defaults.
const (
	DefaultSchedWindow  = 16
	DefaultReorderBound = 64
)

func (c SchedConfig) withDefaults() SchedConfig {
	if c.Window <= 0 {
		c.Window = DefaultSchedWindow
	}
	if c.ReorderBound <= 0 {
		c.ReorderBound = DefaultReorderBound
	}
	return c
}

// opKind classifies a scheduled transaction.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opErase
	opCopy
)

func (k opKind) String() string {
	return [...]string{"read", "write", "erase", "copy"}[k]
}

// schedOp is one transaction held by the scheduling layer.
type schedOp struct {
	seq      uint64
	kind     opKind
	segs     []PathSeg // conflict-table reservation set; nil = pass through
	chips    []int     // target chip indices, for the die-utilization score
	run      func(done func())
	bypassed int
}

// SchedFabric wraps an inner Fabric with a pluggable scheduling policy.
// It is transparent to the FTL — same four transactions, same completion
// semantics — and entirely synchronous: every scheduling decision runs
// inside the enqueue call or a completion callback, so it schedules no
// engine events of its own and inherits the wrapped fabric's determinism
// (including byte-identity at any -parallel setting).
//
// With SchedFIFO the wrapper issues every transaction immediately in
// arrival order — the exact event sequence of an unwrapped fabric — so
// unit tests can diff the other policies against it.
type SchedFabric struct {
	inner Fabric
	pol   SchedPolicy
	cfg   SchedConfig
	ways  int

	seq      uint64
	inflight int

	// conflict state: active reservations and the deferred queue in
	// arrival order.
	table  map[PathSeg]uint64
	deferq []*schedOp

	// out-of-order state: pending transactions in arrival order and the
	// per-chip inflight load the picker scores against.
	pending  []*schedOp
	chipLoad map[int]int

	check SchedChecker

	// counters for reports and tests
	deferred   int64 // conflict: transactions that waited in the defer queue
	reordered  int64 // ooo: picks that bypassed at least one older transaction
	forced     int64 // ooo: starvation-bound forced picks
	maxPending int
}

// NewSchedFabric wraps inner with the given policy at default tuning.
func NewSchedFabric(inner Fabric, pol SchedPolicy) *SchedFabric {
	return NewSchedFabricCfg(inner, pol, SchedConfig{})
}

// NewSchedFabricCfg wraps inner with explicit tuning.
func NewSchedFabricCfg(inner Fabric, pol SchedPolicy, cfg SchedConfig) *SchedFabric {
	if inner == nil {
		panic("controller: scheduling layer needs an inner fabric")
	}
	return &SchedFabric{
		inner:    inner,
		pol:      pol,
		cfg:      cfg.withDefaults(),
		ways:     inner.Grid().Ways,
		table:    make(map[PathSeg]uint64),
		chipLoad: make(map[int]int),
	}
}

// Policy returns the active scheduling policy.
func (f *SchedFabric) Policy() SchedPolicy { return f.pol }

// Window returns the reorder-window size the checker should enforce: the
// configured inflight window for out-of-order, 0 (unwindowed) otherwise.
func (f *SchedFabric) Window() int {
	if f.pol == SchedOOO {
		return f.cfg.Window
	}
	return 0
}

// ReorderBound returns the configured starvation bound.
func (f *SchedFabric) ReorderBound() int { return f.cfg.ReorderBound }

// SetChecker attaches a scheduling checker; nil (the default) detaches.
func (f *SchedFabric) SetChecker(c SchedChecker) { f.check = c }

// Counts returns the policy counters: conflict deferrals, out-of-order
// reorders, and starvation-bound forced picks.
func (f *SchedFabric) Counts() (deferred, reordered, forced int64) {
	return f.deferred, f.reordered, f.forced
}

// MaxPending returns the deepest pending/deferred backlog observed.
func (f *SchedFabric) MaxPending() int { return f.maxPending }

// Quiesced reports whether the scheduling layer holds nothing: no
// inflight transactions, no deferred or pending backlog, and an empty
// reservation table — the drain-time leak invariant.
func (f *SchedFabric) Quiesced() bool {
	return f.inflight == 0 && len(f.deferq) == 0 && len(f.pending) == 0 && len(f.table) == 0
}

// Inner returns the wrapped fabric.
func (f *SchedFabric) Inner() Fabric { return f.inner }

// Name implements Fabric; the wrapper is invisible in reports.
func (f *SchedFabric) Name() string { return f.inner.Name() }

// Grid implements Fabric.
func (f *SchedFabric) Grid() *Grid { return f.inner.Grid() }

// Lookahead implements Fabric: scheduling decisions are synchronous and
// add no latency, so the inner fabric's bound carries through.
func (f *SchedFabric) Lookahead() sim.Time { return f.inner.Lookahead() }

func (f *SchedFabric) chipIndex(id ChipID) int { return id.Channel*f.ways + id.Way }

// readPath closes over the segments a read may occupy. On Omnibus the
// return path is adaptive or split, so the reservation conservatively
// covers both the row's h-channel and the column's v-channel; bus
// fabrics have only the h-channel; mesh chips reserve themselves.
func (f *SchedFabric) readPath(id ChipID) []PathSeg {
	switch in := f.inner.(type) {
	case *OmnibusFabric:
		return []PathSeg{{SegH, id.Channel}, {SegV, in.vIndex(id.Way)}, {SegChip, f.chipIndex(id)}}
	case *BusFabric:
		return []PathSeg{{SegH, id.Channel}, {SegChip, f.chipIndex(id)}}
	default:
		return []PathSeg{{SegChip, f.chipIndex(id)}}
	}
}

// copyPath closes over the segments a GC copy occupies: the column's
// v-channel for a direct Omnibus copy, the two rows' h-channels for a
// relayed one, plus both chips.
func (f *SchedFabric) copyPath(src, dst ChipID) []PathSeg {
	chips := []PathSeg{{SegChip, f.chipIndex(src)}, {SegChip, f.chipIndex(dst)}}
	var segs []PathSeg
	switch in := f.inner.(type) {
	case *OmnibusFabric:
		if in.vIndex(src.Way) == in.vIndex(dst.Way) {
			segs = []PathSeg{{SegV, in.vIndex(src.Way)}}
		} else {
			segs = []PathSeg{{SegH, src.Channel}, {SegH, dst.Channel}}
		}
	case *BusFabric:
		segs = []PathSeg{{SegH, src.Channel}, {SegH, dst.Channel}}
	}
	return dedupeSegs(append(segs, chips...))
}

// dedupeSegs removes duplicate segments (a same-row relay copy names one
// h-channel twice) so reserve/release stay exactly-once per segment.
func dedupeSegs(segs []PathSeg) []PathSeg {
	out := segs[:0]
	for _, s := range segs {
		dup := false
		for _, o := range out {
			if o == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// Read implements Fabric.
func (f *SchedFabric) Read(id ChipID, ppas []flash.PPA, done func()) {
	addrs := append([]flash.PPA(nil), ppas...)
	f.submit(&schedOp{
		kind:  opRead,
		segs:  f.readPath(id),
		chips: []int{f.chipIndex(id)},
		run:   func(fin func()) { f.inner.Read(id, addrs, fin) },
	}, done)
}

// Write implements Fabric. Writes are single-path on every fabric, so
// the conflict policy passes them through unreserved; the out-of-order
// window still sequences them against the die-utilization score.
func (f *SchedFabric) Write(id ChipID, ops []flash.ProgramOp, done func()) {
	writes := append([]flash.ProgramOp(nil), ops...)
	f.submit(&schedOp{
		kind:  opWrite,
		chips: []int{f.chipIndex(id)},
		run:   func(fin func()) { f.inner.Write(id, writes, fin) },
	}, done)
}

// Erase implements Fabric; erases are one control packet and pass the
// conflict table unreserved.
func (f *SchedFabric) Erase(id ChipID, blocks []flash.PPA, done func()) {
	addrs := append([]flash.PPA(nil), blocks...)
	f.submit(&schedOp{
		kind:  opErase,
		chips: []int{f.chipIndex(id)},
		run:   func(fin func()) { f.inner.Erase(id, addrs, fin) },
	}, done)
}

// Copy implements Fabric.
func (f *SchedFabric) Copy(src ChipID, from flash.PPA, dst ChipID, to flash.PPA, done func()) {
	f.submit(&schedOp{
		kind:  opCopy,
		segs:  f.copyPath(src, dst),
		chips: []int{f.chipIndex(src), f.chipIndex(dst)},
		run:   func(fin func()) { f.inner.Copy(src, from, dst, to, fin) },
	}, done)
}

// submit routes one transaction through the active policy. The done
// callback is wrapped so completion feeds the scheduler before the FTL.
func (f *SchedFabric) submit(op *schedOp, done func()) {
	op.seq = f.seq
	f.seq++
	fin := func() {
		f.complete(op)
		if done != nil {
			done()
		}
	}
	switch f.pol {
	case SchedConflict:
		if op.segs != nil && (f.frozenConflict() || !f.pathFree(op.segs)) {
			f.deferred++
			f.deferq = append(f.deferq, op)
			if n := len(f.deferq); n > f.maxPending {
				f.maxPending = n
			}
			op.run = wrapFin(op.run, fin)
			return
		}
		// A fresh reservation jumping ahead of deferred work counts as a
		// bypass against everything already waiting, so the starvation
		// bound covers new arrivals too.
		if op.segs != nil {
			for _, d := range f.deferq {
				d.bypassed++
			}
		}
		f.issue(op, 0, fin)
	case SchedOOO:
		f.pending = append(f.pending, op)
		if n := len(f.pending); n > f.maxPending {
			f.maxPending = n
		}
		op.run = wrapFin(op.run, fin)
		f.drainOOO()
	default: // SchedFIFO: immediate, arrival order
		f.issue(op, 0, fin)
	}
}

// wrapFin binds the completion chain into the op so deferred issues keep
// their callback.
func wrapFin(run func(done func()), fin func()) func(done func()) {
	return func(_ func()) { run(fin) }
}

// issue reserves the op's path (conflict policy), notifies the checker,
// bumps the load accounting, and hands the transaction to the inner
// fabric. rank is the op's arrival-order position among the transactions
// it was picked from.
func (f *SchedFabric) issue(op *schedOp, rank int, fin func()) {
	if f.pol == SchedConflict && op.segs != nil {
		for _, s := range op.segs {
			f.table[s] = op.seq
		}
		if f.check != nil {
			f.check.SchedReserved(op.seq, op.segs)
		}
	}
	f.inflight++
	for _, c := range op.chips {
		f.chipLoad[c]++
	}
	if f.check != nil {
		f.check.SchedIssued(op.seq, rank, f.Window(), op.bypassed, f.cfg.ReorderBound)
	}
	if fin != nil {
		op.run(fin)
	} else {
		op.run(nil) // deferred op: fin already bound by wrapFin
	}
}

// complete runs when the inner fabric finishes an op: release the path,
// update load, notify the checker, and let the policy admit more work.
func (f *SchedFabric) complete(op *schedOp) {
	f.inflight--
	for _, c := range op.chips {
		if f.chipLoad[c]--; f.chipLoad[c] == 0 {
			delete(f.chipLoad, c)
		}
	}
	if f.pol == SchedConflict && op.segs != nil {
		for _, s := range op.segs {
			delete(f.table, s)
		}
		if f.check != nil {
			f.check.SchedReleased(op.seq, op.segs)
		}
	}
	if f.check != nil {
		f.check.SchedCompleted(op.seq, f.inflight)
	}
	switch f.pol {
	case SchedConflict:
		f.drainConflict()
	case SchedOOO:
		f.drainOOO()
	}
}
