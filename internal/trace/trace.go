// Package trace is the simulator's observability subsystem: a
// deterministic event/span recorder keyed on sim.Time.
//
// A Recorder collects three kinds of data:
//
//   - Resource hold spans. Every sim.Resource the Recorder observes (bus
//     channels, flash dies, the NVMe link, the SoC system bus and DRAM)
//     reports each completed hold with its queue wait; the Recorder turns
//     them into one Chrome trace track per resource.
//   - Logical spans. Layers that know about requests — the host front
//     end, the FTL, the Omnibus control plane — bracket lifecycle phases
//     (a request from arrival to completion, a GC round, a grant
//     arbitration, a write stall) as async spans, and mark routing
//     decisions as instant events.
//   - Fixed-interval timelines. Per-track busy time is accumulated into
//     fixed windows (sim.UtilRecorder), the data behind the per-bus
//     heatmap table.
//
// Tracing is strictly passive: the Recorder never schedules events and
// never touches model state, so a traced run executes the identical event
// sequence as an untraced one. A nil *Recorder is a valid, disabled
// recorder — every method is nil-safe and the disabled paths are
// allocation-free — so model code holds plain *Recorder fields and calls
// them unconditionally.
package trace

import (
	"repro/internal/sim"
)

// Config parameterizes a Recorder.
type Config struct {
	// Window is the fixed interval of the utilization timelines; zero
	// selects sim.DefaultWindow.
	Window sim.Time
	// TrackPrefix is prepended to every track name. Array runs trace many
	// devices whose internal resources share names ("nvme", "h0", die
	// grids); a per-device prefix like "dev3/" keeps the merged view
	// unambiguous without renaming any resource.
	TrackPrefix string
}

// Track kinds, used to group tracks in exports and heatmap tables.
const (
	KindHChannel = "h-channel"
	KindVChannel = "v-channel"
	KindChip     = "chip"
	KindSoc      = "soc"
	KindHost     = "host"
	KindTenant   = "tenant"
	KindOther    = "resource"
)

// Track is one timeline in the trace: a resource (bus, die, DRAM port) or
// a logical grouping.
type Track struct {
	Name string
	Kind string
	id   int
	tl   *Timeline
}

// Timeline returns the track's fixed-interval busy timeline.
func (t *Track) Timeline() *Timeline { return t.tl }

// SpanID identifies an in-flight async span returned by BeginSpan. The
// zero value is inert: EndSpan of a zero SpanID is a no-op, so callers on
// disabled recorders need no guards.
type SpanID struct {
	id   uint64
	cat  string
	name string
	tid  int
}

// KV is one key/value argument attached to an event. Values must be
// JSON-marshalable; spans built on hot paths should only construct KVs
// inside an Enabled() guard.
type KV struct {
	K string
	V interface{}
}

// Recorder accumulates trace events for one simulation run.
type Recorder struct {
	eng    *sim.Engine
	window sim.Time
	prefix string

	events []event
	tracks map[string]*Track
	order  []string
	nextID uint64

	holds int64
	waits sim.Time
}

// New builds a Recorder bound to an engine.
func New(eng *sim.Engine, cfg Config) *Recorder {
	w := cfg.Window
	if w <= 0 {
		w = sim.DefaultWindow
	}
	return &Recorder{
		eng:    eng,
		window: w,
		prefix: cfg.TrackPrefix,
		tracks: make(map[string]*Track),
	}
}

// Enabled reports whether the recorder is live. It is the guard hot paths
// use before building event arguments.
func (r *Recorder) Enabled() bool { return r != nil }

// Window returns the timeline interval.
func (r *Recorder) Window() sim.Time {
	if r == nil {
		return 0
	}
	return r.window
}

// RegisterTrack declares a track up front so it appears in the export
// (with stable ordering) even if it never records an event — the
// guarantee behind "one track per h-channel, v-channel, and chip".
// Registering an existing name returns the existing track. The
// configured TrackPrefix is applied here, the single naming point, so
// every caller and every auto-registered resource agrees on the final
// name.
func (r *Recorder) RegisterTrack(name, kind string) *Track {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	if t, ok := r.tracks[name]; ok {
		return t
	}
	t := &Track{Name: name, Kind: kind, id: len(r.order) + 1, tl: NewTimeline(r.window)}
	r.tracks[name] = t
	r.order = append(r.order, name)
	return t
}

// track resolves a raw (unprefixed) name, auto-registering unknown
// resources.
func (r *Recorder) track(name string) *Track {
	if t, ok := r.tracks[r.prefix+name]; ok {
		return t
	}
	return r.RegisterTrack(name, KindOther)
}

// Tracks returns all tracks of one kind in registration order; an empty
// kind selects every track.
func (r *Recorder) Tracks(kind string) []*Track {
	if r == nil {
		return nil
	}
	var out []*Track
	for _, name := range r.order {
		t := r.tracks[name]
		if kind == "" || t.Kind == kind {
			out = append(out, t)
		}
	}
	return out
}

// ResourceHold implements sim.ResourceObserver: one complete event on the
// resource's track, with the queue wait attached when nonzero.
func (r *Recorder) ResourceHold(res *sim.Resource, label string, queuedAt, grantedAt, releasedAt sim.Time) {
	if r == nil {
		return
	}
	t := r.track(res.Name())
	t.tl.AddBusy(grantedAt, releasedAt)
	r.holds++
	ev := event{Name: label, Cat: "hold", Ph: phComplete, Ts: grantedAt, Dur: releasedAt - grantedAt, Tid: t.id}
	if wait := grantedAt - queuedAt; wait > 0 {
		r.waits += wait
		ev.Args = []KV{{K: "wait_us", V: wait.Microseconds()}}
	}
	r.events = append(r.events, ev)
}

// ResourceQueue implements sim.ResourceObserver. Queue depth is not
// traced: each hold's wait already rides on its span.
func (r *Recorder) ResourceQueue(*sim.Resource, int, sim.Time) {}

// BeginSpan opens an async span (a lifecycle phase not tied to one
// resource: a request, a GC round, a grant arbitration). The returned id
// must be passed to EndSpan; the zero SpanID from a disabled recorder is
// accepted and ignored there.
func (r *Recorder) BeginSpan(cat, name string, args ...KV) SpanID {
	if r == nil {
		return SpanID{}
	}
	r.nextID++
	id := SpanID{id: r.nextID, cat: cat, name: name}
	r.events = append(r.events, event{Name: name, Cat: cat, Ph: phAsyncBegin, Ts: r.eng.Now(), ID: id.id, Args: args})
	return id
}

// BeginSpanOn opens an async span pinned to a registered track's
// timeline row instead of the shared tid-0 row — the per-tenant request
// tracks of the multi-queue front end. A nil track (from a disabled
// recorder) falls back to BeginSpan's shared row.
func (r *Recorder) BeginSpanOn(t *Track, cat, name string, args ...KV) SpanID {
	if r == nil {
		return SpanID{}
	}
	if t == nil {
		return r.BeginSpan(cat, name, args...)
	}
	r.nextID++
	id := SpanID{id: r.nextID, cat: cat, name: name, tid: t.id}
	r.events = append(r.events, event{Name: name, Cat: cat, Ph: phAsyncBegin, Ts: r.eng.Now(), ID: id.id, Tid: t.id, Args: args})
	return id
}

// EndSpan closes an async span; args are attached to the end event.
func (r *Recorder) EndSpan(id SpanID, args ...KV) {
	if r == nil || id.id == 0 {
		return
	}
	r.events = append(r.events, event{Name: id.name, Cat: id.cat, Ph: phAsyncEnd, Ts: r.eng.Now(), ID: id.id, Tid: id.tid, Args: args})
}

// Instant marks a point event (a routing decision, a fault) at the
// current simulation time.
func (r *Recorder) Instant(cat, name string, args ...KV) {
	if r == nil {
		return
	}
	r.events = append(r.events, event{Name: name, Cat: cat, Ph: phInstant, Ts: r.eng.Now(), Args: args})
}

// Events returns the number of events recorded so far.
func (r *Recorder) Events() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Holds returns the number of resource holds observed and their total
// queue wait.
func (r *Recorder) Holds() (int64, sim.Time) {
	if r == nil {
		return 0, 0
	}
	return r.holds, r.waits
}

// BusyTotals returns, per track of the given kind, the summed busy time
// recorded on that track — the quantity the export equivalence test
// compares against each channel's own TotalBusy accounting.
func (r *Recorder) BusyTotals(kind string) map[string]sim.Time {
	if r == nil {
		return nil
	}
	out := make(map[string]sim.Time)
	for _, t := range r.Tracks(kind) {
		out[t.Name] = t.tl.TotalBusy()
	}
	return out
}

// HeatRows returns the per-track utilization series of one kind, padded
// to a common width covering [0, end) — ready for report.Heat rendering.
// Track order is registration order; names parallel rows.
func (r *Recorder) HeatRows(kind string, end sim.Time) (names []string, rows [][]float64) {
	if r == nil {
		return nil, nil
	}
	tracks := r.Tracks(kind)
	width := 0
	if end > 0 {
		width = int((end + r.window - 1) / r.window)
	}
	for _, t := range tracks {
		width = max(width, t.tl.busy.Len())
	}
	for _, t := range tracks {
		names = append(names, t.Name)
		rows = append(rows, t.tl.UtilSeries(width))
	}
	return names, rows
}
