package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// spanKind names a span: one call across a layer boundary, timed in host
// nanoseconds from the benchmark's side of the call.
type spanKind uint8

const (
	spanSchedule spanKind = iota // Engine.At calls that queue the requests
	spanDrain                    // SSD.Drain
	spanSubmit                   // Host.Submit
	spanIssue                    // Fabric.Read/Write/Erase/Copy, +op
	spanDone     = spanIssue + spanKind(numOps)
	numSpanKinds = spanDone + spanKind(numOps)
)

func (k spanKind) String() string {
	switch {
	case k == spanSchedule:
		return "host.schedule"
	case k == spanDrain:
		return "sim.drain"
	case k == spanSubmit:
		return "host.submit"
	case k < spanDone:
		return "controller." + opKind(k-spanIssue).String() + "_issue"
	default:
		return "controller." + opKind(k-spanDone).String() + "_done"
	}
}

// opKind is one of the four fabric transactions.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opErase
	opCopy
	numOps
)

func (k opKind) String() string { return [...]string{"read", "write", "erase", "copy"}[k] }

// span is one timed call. parent is the index of the span that was open
// when this one began, or -1.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps every span in memory; the simulation is single
// threaded, so spans nest strictly and a stack tracks the open ones.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(k spanKind) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: k, parent: parent, start: time.Since(r.epoch).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	r.spans[id].end = time.Since(r.epoch).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, per span kind, the number of spans and the sum of
// their self times: each span's duration minus its children's.
func (r *recorder) selfTimes() (count [numSpanKinds]int64, self [numSpanKinds]int64) {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		count[s.kind]++
		self[s.kind] += s.end - s.start - child[i]
	}
	return count, self
}

// write stores every span as one tab-separated line under a header:
// its index, its parent's index (-1 for a root), its name, and its start
// and end in ns since the recorder's epoch. It creates the file's
// directory if needed.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.kind, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opStats accumulates one fabric transaction kind.
type opStats struct {
	count int64
	lat   []sim.Time // simulated issue-to-done time of each operation
}

// tracedFabric passes every transaction through to the real fabric,
// timing the call and its completion callback as spans and recording
// the simulated issue-to-done time. It schedules nothing and touches no
// model state, so the simulation it wraps runs exactly as unwrapped.
type tracedFabric struct {
	inner controller.Fabric
	eng   *sim.Engine
	rec   *recorder
	ops   [numOps]opStats
}

func (f *tracedFabric) Name() string           { return f.inner.Name() }
func (f *tracedFabric) Grid() *controller.Grid { return f.inner.Grid() }
func (f *tracedFabric) Lookahead() sim.Time    { return f.inner.Lookahead() }
func (f *tracedFabric) Read(id controller.ChipID, ppas []flash.PPA, done func()) {
	f.issue(opRead, done, func(d func()) { f.inner.Read(id, ppas, d) })
}
func (f *tracedFabric) Write(id controller.ChipID, ops []flash.ProgramOp, done func()) {
	f.issue(opWrite, done, func(d func()) { f.inner.Write(id, ops, d) })
}
func (f *tracedFabric) Erase(id controller.ChipID, blocks []flash.PPA, done func()) {
	f.issue(opErase, done, func(d func()) { f.inner.Erase(id, blocks, d) })
}
func (f *tracedFabric) Copy(src controller.ChipID, from flash.PPA, dst controller.ChipID, to flash.PPA, done func()) {
	f.issue(opCopy, done, func(d func()) { f.inner.Copy(src, from, dst, to, d) })
}

func (f *tracedFabric) issue(k opKind, done func(), call func(func())) {
	st := &f.ops[k]
	st.count++
	issued := f.eng.Now()
	wrapped := func() {
		st.lat = append(st.lat, f.eng.Now()-issued)
		id := f.rec.begin(spanDone + spanKind(k))
		if done != nil {
			done()
		}
		f.rec.end(id)
	}
	id := f.rec.begin(spanIssue + spanKind(k))
	call(wrapped)
	f.rec.end(id)
}

// holdStats is a sim.ResourceObserver summing the holds of a group of
// resources: how long they were busy and how long holders queued.
type holdStats struct {
	resources int
	holds     int64
	busy      sim.Time
	wait      sim.Time
}

func (h *holdStats) ResourceHold(_ *sim.Resource, _ string, queuedAt, grantedAt, releasedAt sim.Time) {
	h.holds++
	h.busy += releasedAt - grantedAt
	h.wait += grantedAt - queuedAt
}

func (h *holdStats) ResourceQueue(*sim.Resource, int, sim.Time) {}

// busyFrac is the group's mean busy fraction over a simulated span.
func (h *holdStats) busyFrac(over sim.Time) float64 {
	if h.resources == 0 || over <= 0 {
		return 0
	}
	return float64(h.busy) / float64(over) / float64(h.resources)
}

// meanWaitUs is the mean time a hold queued, in simulated microseconds.
func (h *holdStats) meanWaitUs() float64 {
	if h.holds == 0 {
		return 0
	}
	return h.wait.Microseconds() / float64(h.holds)
}

// socStats splits the SoC observer, which both SoC resources share.
type socStats struct{ sysbus, dram holdStats }

func (s *socStats) ResourceHold(r *sim.Resource, label string, q, g, rel sim.Time) {
	if r.Name() == "sysbus" {
		s.sysbus.ResourceHold(r, label, q, g, rel)
	} else {
		s.dram.ResourceHold(r, label, q, g, rel)
	}
}

func (s *socStats) ResourceQueue(*sim.Resource, int, sim.Time) {}

// probes is everything the traced run attaches to one device.
type probes struct {
	rec             *recorder
	fab             *tracedFabric
	h, v, die, nvme holdStats
	soc             socStats
}

// attach hooks the observers to every bus channel, die, SoC resource
// and the NVMe link of a device built around p.fab.
func (p *probes) attach(st setup) {
	switch inner := p.fab.inner.(type) {
	case *controller.BusFabric:
		for ch := 0; ch < st.s.Config.Channels; ch++ {
			inner.Channel(ch).AddObserver(&p.h)
			p.h.resources++
		}
	case *controller.OmnibusFabric:
		for ch := 0; ch < st.s.Config.Channels; ch++ {
			inner.HChannel(ch).AddObserver(&p.h)
			p.h.resources++
		}
		for i := 0; i < inner.NumVChannels(); i++ {
			inner.VChannel(i * inner.ColumnsPerVChannel()).AddObserver(&p.v)
			p.v.resources++
		}
	}
	st.s.Grid.ForEach(func(_ controller.ChipID, c *flash.Chip) {
		c.AddObserver(&p.die)
		p.die.resources++
	})
	st.s.Soc.AddObserver(&p.soc)
	p.soc.sysbus.resources, p.soc.dram.resources = 1, 1
	st.s.Host.AddObserver(&p.nvme)
	p.nvme.resources = 1
}

// tracedRun builds the workload's device through ssd.NewCustom around a
// tracedFabric, attaches the observers, and drives the input with
// Host.Submit and SSD.Drain timed as spans.
func (w spec) tracedRun(seed int64) (outcome, *probes, error) {
	p := &probes{rec: newRecorder()}
	st, err := w.prepare(seed, func(cfg ssd.Config) *ssd.SSD {
		base := w.baseFabric(cfg.BusMTps)
		return ssd.NewCustom(w.arch, cfg, func(eng *sim.Engine, grid *controller.Grid, soc *controller.Soc, ps int) controller.Fabric {
			p.fab = &tracedFabric{inner: base(eng, grid, soc, ps), eng: eng, rec: p.rec}
			return p.fab
		})
	})
	if err != nil {
		return outcome{}, nil, err
	}
	p.attach(st)
	runtime.GC()
	submit := func(r host.Request, done func()) error {
		id := p.rec.begin(spanSubmit)
		err := st.s.Host.Submit(r, done)
		p.rec.end(id)
		return err
	}
	drain := func() sim.Time {
		id := p.rec.begin(spanDrain)
		end := st.s.Drain()
		p.rec.end(id)
		return end
	}
	o := w.drive(st, submit, drain, p.rec)
	return o, p, nil
}

// percentileUs returns the p-th percentile of simulated durations in µs.
func percentileUs(xs []sim.Time, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p / 100 * float64(len(s)-1))
	return s[i].Microseconds()
}
