package telemetry

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

const us = sim.Microsecond

// TestNilCollectorIsSafe pins the passivity contract's disabled side:
// every hook on a nil collector (and nil attribution) is a no-op.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	if c.Window() != 0 {
		t.Fatal("nil collector has a window")
	}
	c.RecordCompletion(stats.Read, 0, 5*us, 4096)
	c.GCStarted(us)
	c.GCFinished(2 * us)
	c.GCCopied(us)
	c.GrantWait(us, 2*us)
	c.Event("program-fail", us)
	c.RegisterTenants([]string{"a"})
	c.TenantDepth("a", 3, us)
	c.RebuildPage(us)
	c.AddMark("m", us)
	a := c.StartRequest(stats.Write, 0)
	if a != nil {
		t.Fatal("nil collector returned a live attribution")
	}
	a.Mark(PhaseFlash, us)
	if a.Phase(PhaseFlash) != 0 {
		t.Fatal("nil attribution accumulated time")
	}
	c.FinishRequest(a, us, 4096)
	if c.Requests() != 0 || c.AttributionViolations() != 0 {
		t.Fatal("nil collector counted requests")
	}
	if c.Summary(us) != nil {
		t.Fatal("nil collector produced a summary")
	}
	if got := c.Summary(us).String(); got != "telemetry: disabled" {
		t.Fatalf("nil summary string %q", got)
	}
}

// TestWindowCount checks the window arithmetic, including the
// end-exactly-on-boundary case collapsing into the previous window.
func TestWindowCount(t *testing.T) {
	for _, tc := range []struct {
		end  sim.Time
		want int
	}{
		{0, 1}, {us, 1}, {10*us - 1, 1}, {10 * us, 1}, {10*us + 1, 2}, {20 * us, 2}, {35 * us, 4},
	} {
		c := New(Config{Window: 10 * us})
		s := c.Summary(tc.end)
		if s.Windows != tc.want {
			t.Fatalf("end=%v: %d windows, want %d", tc.end, s.Windows, tc.want)
		}
		for _, sr := range s.Series {
			if len(sr.Values) != tc.want {
				t.Fatalf("end=%v: series %s has %d values, want %d", tc.end, sr.Name, len(sr.Values), tc.want)
			}
		}
	}
	if w := New(Config{}).Window(); w != sim.DefaultWindow {
		t.Fatalf("default window %v", w)
	}
}

// TestThroughputAndLatencySeries checks per-window completion counts
// and the windowed latency percentiles.
func TestThroughputAndLatencySeries(t *testing.T) {
	c := New(Config{Window: 10 * us})
	c.RecordCompletion(stats.Read, 0, 5*us, 4096)    // window 0, 5us latency
	c.RecordCompletion(stats.Read, 2*us, 8*us, 4096) // window 0, 6us latency
	c.RecordCompletion(stats.Write, 0, 25*us, 8192)  // window 2, 25us latency
	s := c.Summary(30 * us)
	if s.Windows != 3 {
		t.Fatalf("%d windows", s.Windows)
	}
	tp := s.SeriesByName("throughput")
	// 2 completions in a 10us window = 200 KIOPS; then 0; then 100.
	if want := []float64{200, 0, 100}; !reflect.DeepEqual(tp.Values, want) {
		t.Fatalf("throughput %v, want %v", tp.Values, want)
	}
	bw := s.SeriesByName("bandwidth")
	if bw.Values[0] <= 0 || bw.Values[1] != 0 || bw.Values[2] <= 0 {
		t.Fatalf("bandwidth %v", bw.Values)
	}
	mean := s.SeriesByName("lat_mean")
	if mean.Values[0] < 5 || mean.Values[0] > 6.5 || mean.Values[1] != 0 {
		t.Fatalf("lat_mean %v", mean.Values)
	}
	if p99 := s.SeriesByName("lat_p99"); p99.Values[2] < 24 || p99.Values[2] > 28 {
		t.Fatalf("lat_p99 %v", p99.Values)
	}
}

// TestGCBusyIntegration checks that one GC interval spreads its busy
// fraction across the windows it overlaps.
func TestGCBusyIntegration(t *testing.T) {
	c := New(Config{Window: 10 * us})
	c.GCStarted(5 * us)
	c.GCFinished(25 * us)
	c.GCCopied(7 * us)
	c.GCCopied(12 * us)
	s := c.Summary(30 * us)
	busy := s.SeriesByName("gc_active")
	if want := []float64{0.5, 1, 0.5}; !reflect.DeepEqual(busy.Values, want) {
		t.Fatalf("gc_active %v, want %v", busy.Values, want)
	}
	if copies := s.SeriesByName("gc_copies"); !reflect.DeepEqual(copies.Values, []float64{1, 1, 0}) {
		t.Fatalf("gc_copies %v", copies.Values)
	}
}

// TestSummaryClosesOpenIntervalsIdempotently: an unfinished GC round
// and a standing tenant queue are closed at the export horizon without
// mutating the collector — two exports agree byte for byte.
func TestSummaryClosesOpenIntervalsIdempotently(t *testing.T) {
	c := New(Config{Window: 10 * us})
	c.GCStarted(5 * us)
	c.RegisterTenants([]string{"t0"})
	c.TenantDepth("t0", 2, 0)
	first := c.Summary(20 * us)
	second := c.Summary(20 * us)
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatalf("summary not idempotent:\n%s\n%s", a, b)
	}
	if busy := first.SeriesByName("gc_active"); !reflect.DeepEqual(busy.Values, []float64{0.5, 1}) {
		t.Fatalf("open GC interval not closed: %v", busy.Values)
	}
	if d := first.SeriesByName("qdepth:t0"); !reflect.DeepEqual(d.Values, []float64{2, 2}) {
		t.Fatalf("standing tenant depth not closed: %v", d.Values)
	}
}

// TestTenantDepthIntegration checks depth x duration averaging within
// a window.
func TestTenantDepthIntegration(t *testing.T) {
	c := New(Config{Window: 10 * us})
	c.RegisterTenants([]string{"a", "b"})
	c.TenantDepth("a", 4, 0)      // depth 4 over [0,5) = 2.0 average
	c.TenantDepth("a", 0, 5*us)   // drained
	c.TenantDepth("b", 1, 0)      // depth 1 across both windows
	c.TenantDepth("ghost", 9, us) // unregistered: dropped
	s := c.Summary(20 * us)
	if d := s.SeriesByName("qdepth:a"); !reflect.DeepEqual(d.Values, []float64{2, 0}) {
		t.Fatalf("qdepth:a %v", d.Values)
	}
	if d := s.SeriesByName("qdepth:b"); !reflect.DeepEqual(d.Values, []float64{1, 1}) {
		t.Fatalf("qdepth:b %v", d.Values)
	}
	if s.SeriesByName("qdepth:ghost") != nil {
		t.Fatal("unregistered tenant leaked into the summary")
	}
}

// TestGrantWaitAndEvents checks the grant-wait integration, the event
// class counting, and that event series export in sorted class order.
func TestGrantWaitAndEvents(t *testing.T) {
	c := New(Config{Window: 10 * us})
	c.GrantWait(8*us, 12*us) // 2us in window 0, 2us in window 1
	c.GrantWait(12*us, 12*us)
	c.Event("write-stall", us)
	c.Event("grant-drop", 15*us)
	c.Event("write-stall", 15*us)
	s := c.Summary(20 * us)
	if w := s.SeriesByName("grant_wait"); !reflect.DeepEqual(w.Values, []float64{2, 2}) {
		t.Fatalf("grant_wait %v", w.Values)
	}
	if g := s.SeriesByName("grants"); !reflect.DeepEqual(g.Values, []float64{0, 2}) {
		t.Fatalf("grants %v", g.Values)
	}
	if e := s.SeriesByName("event:grant-drop"); !reflect.DeepEqual(e.Values, []float64{0, 1}) {
		t.Fatalf("event:grant-drop %v", e.Values)
	}
	if e := s.SeriesByName("event:write-stall"); !reflect.DeepEqual(e.Values, []float64{1, 1}) {
		t.Fatalf("event:write-stall %v", e.Values)
	}
	var classes []string
	for _, sr := range s.Series {
		if len(sr.Name) > 6 && sr.Name[:6] == "event:" {
			classes = append(classes, sr.Name)
		}
	}
	if !reflect.DeepEqual(classes, []string{"event:grant-drop", "event:write-stall"}) {
		t.Fatalf("event series not sorted: %v", classes)
	}
}

// TestRebuildSeriesAndMarks checks the array-facing channels.
func TestRebuildSeriesAndMarks(t *testing.T) {
	c := New(Config{Window: 10 * us})
	c.RebuildPage(3 * us)
	c.RebuildPage(3 * us)
	c.RebuildPage(12 * us)
	c.AddMark("rebuild-detect", 2*us)
	c.AddMark("rebuild-complete", 12*us)
	s := c.Summary(0) // end before lastEvent: clamped up to 12us
	if r := s.SeriesByName("rebuild"); !reflect.DeepEqual(r.Values, []float64{2, 1}) {
		t.Fatalf("rebuild %v", r.Values)
	}
	if len(s.Marks) != 2 || s.Marks[0].Name != "rebuild-detect" || s.Marks[1].AtUs != 12 {
		t.Fatalf("marks %+v", s.Marks)
	}
}

// TestAttributionPartition builds one request whose marks partition
// [arrival, completion] and checks phase sums, histograms, and shares.
func TestAttributionPartition(t *testing.T) {
	c := New(Config{Window: 10 * us})
	a := c.StartRequest(stats.Read, 2*us)
	a.Mark(PhaseQueue, 4*us) // 2us queue
	a.Mark(PhaseCmd, 5*us)   // 1us cmd
	a.Mark(PhaseCmd, 5*us)   // zero-width re-mark: no-op
	a.Mark(PhaseStall, 5*us) // zero stall
	a.Mark(PhaseFlash, 11*us)
	a.Mark(PhaseXfer, 14*us)
	if got := a.Phase(PhaseFlash); got != 6*us {
		t.Fatalf("flash phase %v", got)
	}
	c.FinishRequest(a, 14*us, 4096)
	if c.Requests() != 1 || c.AttributionViolations() != 0 {
		t.Fatalf("requests=%d violations=%d", c.Requests(), c.AttributionViolations())
	}
	s := c.Summary(20 * us)
	var total float64
	for _, p := range s.Phases {
		if p.Kind != "read" {
			t.Fatalf("unexpected kind %q", p.Kind)
		}
		total += p.TotalUs
	}
	if total != 12 { // 14us - 2us arrival
		t.Fatalf("phase totals sum to %vus, want 12", total)
	}
	var shares float64
	for _, p := range s.Phases {
		shares += p.Share
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("shares sum to %v", shares)
	}
	// Zero-duration phases still appear (count > 0) with zero total.
	names := map[string]PhaseSummary{}
	for _, p := range s.Phases {
		names[p.Phase] = p
	}
	if names["gc-stall"].Count != 1 || names["gc-stall"].TotalUs != 0 {
		t.Fatalf("gc-stall row %+v", names["gc-stall"])
	}
}

// TestAttributionViolationDetected: a request whose final mark does not
// land on the completion time fails the partition identity and is
// counted, not dropped.
func TestAttributionViolationDetected(t *testing.T) {
	c := New(Config{})
	a := c.StartRequest(stats.Write, 0)
	a.Mark(PhaseFlash, 5*us)
	c.FinishRequest(a, 9*us, 0) // 4us never credited to any phase
	if c.AttributionViolations() != 1 {
		t.Fatalf("violations %d, want 1", c.AttributionViolations())
	}
	if c.Requests() != 1 {
		t.Fatalf("requests %d", c.Requests())
	}
}

// TestRecordCompletionOrderIndependent pins the property the array tier
// relies on: feeding completions in any order yields the same summary.
func TestRecordCompletionOrderIndependent(t *testing.T) {
	type rec struct {
		kind             stats.IOKind
		arrive, complete sim.Time
		bytes            int64
	}
	recs := []rec{
		{stats.Read, 0, 7 * us, 4096},
		{stats.Write, 3 * us, 25 * us, 8192},
		{stats.Read, 5 * us, 6 * us, 4096},
		{stats.Write, 0, 40 * us, 4096},
	}
	build := func(order []int) string {
		c := New(Config{Window: 10 * us})
		for _, i := range order {
			r := recs[i]
			c.RecordCompletion(r.kind, r.arrive, r.complete, r.bytes)
		}
		raw, _ := json.Marshal(c.Summary(40 * us))
		return string(raw)
	}
	fwd := build([]int{0, 1, 2, 3})
	rev := build([]int{3, 2, 1, 0})
	mix := build([]int{2, 0, 3, 1})
	if fwd != rev || fwd != mix {
		t.Fatalf("summary depends on completion feed order:\n%s\n%s\n%s", fwd, rev, mix)
	}
}

// TestPhaseStringNames pins the stable JSON phase names.
func TestPhaseStringNames(t *testing.T) {
	want := map[Phase]string{
		PhaseQueue: "sq-wait", PhaseCmd: "cmd", PhaseXfer: "nvme-xfer",
		PhaseStall: "gc-stall", PhaseFlash: "flash",
	}
	for p, name := range want {
		if p.String() != name {
			t.Fatalf("phase %d = %q, want %q", p, p.String(), name)
		}
	}
	if Phase(99).String() != "unknown" || Phase(-1).String() != "unknown" {
		t.Fatal("out-of-range phase name")
	}
}
