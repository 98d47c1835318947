package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNilRecorderIsInert verifies the disabled path: every exported method
// must be safe on a nil *Recorder, because the whole simulator calls them
// unconditionally through nil-receiver dispatch.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.ResourceHold(nil, "x", 0, 0, 0)
	r.ResourceQueue(nil, 1, 0)
	id := r.BeginSpan("cat", "name")
	if id != (SpanID{}) {
		t.Fatalf("nil BeginSpan returned live id %+v", id)
	}
	r.EndSpan(id)
	r.Instant("cat", "name")
	if r.Events() != 0 {
		t.Fatal("nil recorder counted events")
	}
	if h, w := r.Holds(); h != 0 || w != 0 {
		t.Fatal("nil recorder counted holds")
	}
	var buf bytes.Buffer
	if err := r.ExportChrome(&buf); err != nil {
		t.Fatalf("nil ExportChrome: %v", err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil export is not JSON: %v", err)
	}
}

func TestTimelineBusyWindowing(t *testing.T) {
	win := 10 * sim.Microsecond
	tl := NewTimeline(win)
	// A hold spanning windows 0..2: [5us, 25us) = 5us in w0, 10us in w1, 5us in w2.
	tl.AddBusy(5*sim.Microsecond, 25*sim.Microsecond)
	series := tl.UtilSeries(3)
	want := []float64{0.5, 1.0, 0.5}
	if len(series) != len(want) {
		t.Fatalf("series length %d, want %d", len(series), len(want))
	}
	for i, v := range want {
		if series[i] != v {
			t.Fatalf("window %d utilization %v, want %v", i, series[i], v)
		}
	}
	// Windows past the last hold read zero.
	if pad := tl.UtilSeries(5); pad[3] != 0 || pad[4] != 0 || pad[1] != 1.0 {
		t.Fatalf("padded series %v", pad)
	}
	if tl.TotalBusy() != 20*sim.Microsecond {
		t.Fatalf("TotalBusy %v, want 20us", tl.TotalBusy())
	}
}

// newTestRecorder builds a recorder with its own engine.
func newTestRecorder(cfg Config) (*sim.Engine, *Recorder) {
	eng := sim.NewEngine()
	return eng, New(eng, cfg)
}

func TestRecorderHoldsAndHeatRows(t *testing.T) {
	eng, rec := newTestRecorder(Config{Window: 10 * sim.Microsecond})
	_ = eng
	rec.RegisterTrack("h0", KindHChannel)
	rec.RegisterTrack("h1", KindHChannel)
	res := sim.NewResource(sim.NewEngine(), "h0")
	rec.ResourceHold(res, "xfer", 0, 0, 15*sim.Microsecond)
	rec.ResourceHold(res, "xfer", 20*sim.Microsecond, 30*sim.Microsecond, 35*sim.Microsecond)

	holds, waits := rec.Holds()
	if holds != 2 {
		t.Fatalf("holds = %d, want 2", holds)
	}
	if waits != 10*sim.Microsecond {
		t.Fatalf("wait total %v, want 10us", waits)
	}
	busy := rec.BusyTotals(KindHChannel)
	if busy["h0"] != 20*sim.Microsecond {
		t.Fatalf("h0 busy %v, want 20us", busy["h0"])
	}
	names, rows := rec.HeatRows(KindHChannel, 40*sim.Microsecond)
	if len(names) != 2 || names[0] != "h0" || names[1] != "h1" {
		t.Fatalf("HeatRows names %v", names)
	}
	// 40us end with 10us windows: all rows padded to 4 columns.
	for i, row := range rows {
		if len(row) != 4 {
			t.Fatalf("row %d (%s) has %d windows, want 4", i, names[i], len(row))
		}
	}
	if rows[0][0] != 1.0 || rows[0][1] != 0.5 {
		t.Fatalf("h0 series %v, want [1.0 0.5 ...]", rows[0])
	}
	for _, v := range rows[1] {
		if v != 0 {
			t.Fatal("idle track h1 has nonzero utilization")
		}
	}
}

func TestExportChromeStructure(t *testing.T) {
	_, rec := newTestRecorder(Config{Window: 10 * sim.Microsecond})
	rec.RegisterTrack("h0", KindHChannel)
	res := sim.NewResource(sim.NewEngine(), "h0")
	rec.ResourceHold(res, "xfer", 0, 2*sim.Microsecond, 5*sim.Microsecond)
	id := rec.BeginSpan("req", "read", KV{"lpn", 42})
	rec.Instant("route", "v-return")
	rec.EndSpan(id, KV{"pages", 1})

	var buf bytes.Buffer
	if err := rec.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   float64         `json:"ts"`
			Dur  *float64        `json:"dur"`
			Tid  int             `json:"tid"`
			ID   string          `json:"id"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
	}
	if phases["M"] < 2 {
		t.Fatalf("want process+thread metadata, got %d M events", phases["M"])
	}
	if phases["X"] != 1 || phases["b"] != 1 || phases["e"] != 1 || phases["i"] != 1 {
		t.Fatalf("phase counts %v", phases)
	}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur == nil || *e.Dur != 3.0 {
				t.Fatalf("complete event dur %v, want 3us", e.Dur)
			}
			if e.Ts != 2.0 {
				t.Fatalf("complete event ts %v, want 2us (granted time)", e.Ts)
			}
		case "b", "e":
			if !strings.HasPrefix(e.ID, "0x") {
				t.Fatalf("async event id %q not hex", e.ID)
			}
		}
	}
}

func TestSpanIDsPairUp(t *testing.T) {
	_, rec := newTestRecorder(Config{})
	a := rec.BeginSpan("req", "read")
	b := rec.BeginSpan("req", "write")
	if a == b {
		t.Fatal("distinct spans share an id")
	}
	rec.EndSpan(b)
	rec.EndSpan(a)
	rec.EndSpan(SpanID{}) // zero value must be a no-op
	var buf bytes.Buffer
	if err := rec.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	type ev struct {
		Ph string `json:"ph"`
		ID string `json:"id"`
	}
	var doc struct {
		TraceEvents []ev `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	begins, ends := map[string]int{}, map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "b" {
			begins[e.ID]++
		}
		if e.Ph == "e" {
			ends[e.ID]++
		}
	}
	if len(begins) != 2 || len(ends) != 2 {
		t.Fatalf("begin ids %v end ids %v", begins, ends)
	}
	for id := range begins {
		if ends[id] != begins[id] {
			t.Fatalf("span %s unbalanced: %d begins, %d ends", id, begins[id], ends[id])
		}
	}
}

// A TrackPrefix must apply at every naming point — explicit
// registration, auto-registration from a resource hold, and repeat
// registration must all resolve to the same prefixed track.
func TestTrackPrefixAppliesEverywhere(t *testing.T) {
	eng, rec := newTestRecorder(Config{TrackPrefix: "dev3/"})
	rec.RegisterTrack("h0", KindHChannel)
	if tr := rec.Tracks(KindHChannel); len(tr) != 1 || tr[0].Name != "dev3/h0" {
		t.Fatalf("registered tracks: %+v", tr)
	}
	// Registering the raw name again must not mint a second track.
	rec.RegisterTrack("h0", KindHChannel)
	if tr := rec.Tracks(KindHChannel); len(tr) != 1 {
		t.Fatalf("re-registration duplicated the track: %+v", tr)
	}
	// Auto-registration through an observer callback sees the raw
	// resource name and must land on the prefixed track.
	res := sim.NewResource(eng, "nvme")
	rec.ResourceHold(res, "hold", 0, 0, sim.Microsecond)
	if tr := rec.Tracks(KindOther); len(tr) != 1 || tr[0].Name != "dev3/nvme" {
		t.Fatalf("auto-registered tracks: %+v", tr)
	}
	rec.ResourceHold(res, "hold", sim.Microsecond, sim.Microsecond, 2*sim.Microsecond)
	if tr := rec.Tracks(""); len(tr) != 2 {
		t.Fatalf("repeat hold duplicated a track: %+v", tr)
	}
}

func TestAutoRegisteredTrackGetsOtherKind(t *testing.T) {
	_, rec := newTestRecorder(Config{})
	res := sim.NewResource(sim.NewEngine(), "mystery")
	rec.ResourceHold(res, "hold", 0, 0, sim.Microsecond)
	tracks := rec.Tracks(KindOther)
	if len(tracks) != 1 || tracks[0].Name != "mystery" {
		t.Fatalf("auto-registered tracks: %+v", tracks)
	}
}
