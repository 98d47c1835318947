// Package host models the NVMe front end of the SSD and drives workloads
// against the FTL. It supports open-loop trace replay (requests arrive at
// trace timestamps) and closed-loop generators (a fixed number of
// outstanding I/Os, the x-axis of the paper's Figs 16-17), and records
// per-request latency into stats.IOMetrics.
package host

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Request is one host I/O at page granularity: Pages consecutive LPNs
// starting at LPN. Tenant selects the submission queue when the request
// goes through a multi-queue Frontend; the single-queue Host ignores it.
type Request struct {
	Arrival sim.Time
	Kind    stats.IOKind
	LPN     int64
	Pages   int
	Tenant  int
}

// DefaultCmdLatency is the fixed NVMe command processing overhead
// (submission queue doorbell, fetch, completion) per request.
const DefaultCmdLatency = 1 * sim.Microsecond

// Host is the front end bound to one FTL.
type Host struct {
	eng        *sim.Engine
	f          *ftl.FTL
	pageSize   int
	nvme       *sim.Resource
	nvmePsByte sim.Time
	cmdLatency sim.Time

	metrics  *stats.IOMetrics
	versions map[int64]int64
	inFlight int
	reqSeq   int64

	// trc records one async span per request lifecycle (arrival through
	// completion); nil (the default) disables tracing with no overhead.
	trc *trace.Recorder
	// tel attributes per-request latency to phases and feeds windowed
	// time series; nil (the default) disables telemetry with no
	// overhead, matching the tracer contract.
	tel *telemetry.Collector
}

// New builds a host. nvmeMBps is the host link bandwidth (Table II: PCIe
// 4.0 x4, provisioned at the total flash bus bandwidth).
func New(eng *sim.Engine, f *ftl.FTL, pageSize, nvmeMBps int) *Host {
	if nvmeMBps <= 0 {
		panic("host: non-positive NVMe bandwidth")
	}
	return &Host{
		eng:        eng,
		f:          f,
		pageSize:   pageSize,
		nvme:       sim.NewResource(eng, "nvme"),
		nvmePsByte: sim.Time(1_000_000 / nvmeMBps),
		cmdLatency: DefaultCmdLatency,
		metrics:    stats.NewIOMetrics(),
		versions:   make(map[int64]int64),
	}
}

// Metrics returns the recorder.
func (h *Host) Metrics() *stats.IOMetrics { return h.metrics }

// SetTracer attaches a trace recorder for request lifecycle spans; nil
// (the default) detaches.
func (h *Host) SetTracer(t *trace.Recorder) { h.trc = t }

// SetTelemetry attaches a telemetry collector for latency attribution
// and windowed host series; nil (the default) detaches.
func (h *Host) SetTelemetry(c *telemetry.Collector) { h.tel = c }

// AddObserver attaches a hold/queue observer to the NVMe link resource,
// alongside any already installed.
func (h *Host) AddObserver(o sim.ResourceObserver) { h.nvme.AddObserver(o) }

// NvmeName returns the NVMe link resource's trace track name.
func (h *Host) NvmeName() string { return h.nvme.Name() }

// NvmeIdle reports whether the NVMe link is idle with no queued
// transfers — a drained-device invariant.
func (h *Host) NvmeIdle() bool { return !h.nvme.Busy() && h.nvme.QueueLen() == 0 }

// FTL returns the bound translation layer.
func (h *Host) FTL() *ftl.FTL { return h.f }

// InFlight returns requests submitted but not completed.
func (h *Host) InFlight() int { return h.inFlight }

// Warmup installs the whole footprint [0, lpns) instantly so reads always
// hit mapped pages and the device starts at realistic occupancy.
func (h *Host) Warmup(lpns int64) {
	for lpn := int64(0); lpn < lpns; lpn++ {
		h.f.Install(lpn, ftl.TokenFor(lpn, 0))
	}
}

func (h *Host) lpnsOf(r Request) []int64 {
	lpns := make([]int64, r.Pages)
	for i := range lpns {
		lpn := r.LPN + int64(i)
		if lpn >= h.f.NumLPNs() {
			lpn %= h.f.NumLPNs()
		}
		lpns[i] = lpn
	}
	return lpns
}

// Submit issues one request now (the request's Arrival field is used only
// for latency accounting and must not be in the future). done may be nil.
// A malformed request — non-positive page count, unknown kind, or an
// arrival still in the future — is rejected with an error before any
// event is scheduled, so replaying an untrusted trace cannot crash the
// simulation.
func (h *Host) Submit(r Request, done func()) error {
	if err := r.validate(h.eng.Now()); err != nil {
		return err
	}
	h.inFlight++
	lpns := h.lpnsOf(r)
	bytes := int64(r.Pages) * int64(h.pageSize)
	var span trace.SpanID
	if h.trc.Enabled() {
		h.reqSeq++
		span = h.trc.BeginSpan("req", r.Kind.String(),
			trace.KV{K: "seq", V: h.reqSeq},
			trace.KV{K: "lpn", V: r.LPN},
			trace.KV{K: "pages", V: r.Pages})
	}
	// Latency attribution: the marks below partition [arrival,
	// completion] along the request path — sq-wait to NVMe pickup,
	// command processing, link transfer, FTL stall, flash work — so
	// phase durations sum exactly to end-to-end latency.
	att := h.tel.StartRequest(r.Kind, r.Arrival)
	att.Mark(telemetry.PhaseQueue, h.eng.Now())
	finish := func() {
		h.inFlight--
		now := h.eng.Now()
		h.metrics.Record(r.Kind, r.Arrival, now, bytes)
		h.trc.EndSpan(span)
		if r.Kind == stats.Read {
			att.Mark(telemetry.PhaseXfer, now)
		} else {
			att.Mark(telemetry.PhaseFlash, now)
		}
		h.tel.FinishRequest(att, now, bytes)
		if done != nil {
			done()
		}
	}
	xfer := sim.Time(bytes) * h.nvmePsByte
	if r.Kind == stats.Read {
		h.eng.Schedule(h.cmdLatency, func() {
			att.Mark(telemetry.PhaseCmd, h.eng.Now())
			h.f.ReadTracked(lpns, att, func() {
				att.Mark(telemetry.PhaseFlash, h.eng.Now())
				h.nvme.UseLabeled("read-return", xfer, finish)
			})
		})
	} else {
		toks := make([]flash.Token, len(lpns))
		for i, lpn := range lpns {
			h.versions[lpn]++
			toks[i] = ftl.TokenFor(lpn, h.versions[lpn])
		}
		h.eng.Schedule(h.cmdLatency, func() {
			att.Mark(telemetry.PhaseCmd, h.eng.Now())
			h.nvme.UseLabeled("write-payload", xfer, func() {
				att.Mark(telemetry.PhaseXfer, h.eng.Now())
				h.f.WriteTracked(lpns, toks, att, finish)
			})
		})
	}
	return nil
}

// validate rejects a malformed request; now is the engine clock a
// future-arrival check compares against.
func (r Request) validate(now sim.Time) error {
	if r.Pages <= 0 {
		return fmt.Errorf("host: request with %d pages", r.Pages)
	}
	if r.Kind != stats.Read && r.Kind != stats.Write {
		return fmt.Errorf("host: unknown request kind %d", int(r.Kind))
	}
	if r.Arrival > now {
		return fmt.Errorf("host: submit at %v before arrival time %v", now, r.Arrival)
	}
	return nil
}

// Replay schedules every request of an open-loop trace at its arrival
// time; run the engine afterwards and read Metrics. It returns a counter
// that reports completions. The whole trace is validated up front — an
// arrival before the current simulation time, a non-positive page
// count, or an unknown kind rejects the trace with an error and
// schedules nothing, so a malformed trace file cannot crash a sweep.
func (h *Host) Replay(reqs []Request) (*int, error) {
	now := h.eng.Now()
	for i, r := range reqs {
		if r.Arrival < now {
			return nil, fmt.Errorf("host: request %d arrival %v is in the past (now %v)", i, r.Arrival, now)
		}
		if err := r.validate(r.Arrival); err != nil {
			return nil, fmt.Errorf("host: request %d: %w", i, err)
		}
	}
	completed := new(int)
	for _, r := range reqs {
		r := r
		h.eng.At(r.Arrival, func() {
			r.Arrival = h.eng.Now()
			h.mustSubmit(r, func() { *completed++ })
		})
	}
	return completed, nil
}

// ReplayTimed is Replay returning per-request completion times: entry i
// is when request i's completion fired, or -1 if it never completed by
// the time the engine drained. Array-level reassembly needs the
// per-request view — a stripe's host latency is the max over its shard
// completions — where the aggregate IOMetrics histogram is not enough.
func (h *Host) ReplayTimed(reqs []Request) ([]sim.Time, error) {
	now := h.eng.Now()
	for i, r := range reqs {
		if r.Arrival < now {
			return nil, fmt.Errorf("host: request %d arrival %v is in the past (now %v)", i, r.Arrival, now)
		}
		if err := r.validate(r.Arrival); err != nil {
			return nil, fmt.Errorf("host: request %d: %w", i, err)
		}
	}
	times := make([]sim.Time, len(reqs))
	for i := range times {
		times[i] = -1
	}
	for i, r := range reqs {
		i, r := i, r
		h.eng.At(r.Arrival, func() {
			r.Arrival = h.eng.Now()
			h.mustSubmit(r, func() { times[i] = h.eng.Now() })
		})
	}
	return times, nil
}

// MustReplayTimed is ReplayTimed for traces generated in-process,
// panicking on a validation failure.
func (h *Host) MustReplayTimed(reqs []Request) []sim.Time {
	times, err := h.ReplayTimed(reqs)
	if err != nil {
		panic(err)
	}
	return times
}

// MustReplay replays a trace the caller knows is well-formed (generated
// in-process, not loaded from disk), panicking on a validation failure —
// the convenience the experiment drivers use. Untrusted traces go
// through Replay and handle the error.
func (h *Host) MustReplay(reqs []Request) *int {
	completed, err := h.Replay(reqs)
	if err != nil {
		panic(err)
	}
	return completed
}

// mustSubmit issues a request already validated by the caller; a
// rejection here is a host-layer bug, not bad input.
func (h *Host) mustSubmit(r Request, done func()) {
	if err := h.Submit(r, done); err != nil {
		panic(err)
	}
}

// RunClosedLoop keeps `outstanding` requests in flight until total
// requests have been issued, pulling each next request from gen. It
// schedules the first wave now; run the engine to completion afterwards.
func (h *Host) RunClosedLoop(gen func(i int) Request, outstanding, total int) {
	if outstanding <= 0 || total <= 0 {
		panic("host: invalid closed-loop parameters")
	}
	if outstanding > total {
		outstanding = total
	}
	issued := 0
	var issue func()
	issue = func() {
		if issued >= total {
			return
		}
		r := gen(issued)
		issued++
		r.Arrival = h.eng.Now()
		h.mustSubmit(r, issue)
	}
	for i := 0; i < outstanding; i++ {
		h.eng.Schedule(0, issue)
	}
}
