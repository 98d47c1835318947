package ssd

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runTelemetered executes the determinism workload (GC-heavy SpGC run
// on the given arch) with or without the telemetry collector attached.
func runTelemetered(t *testing.T, arch Arch, mode ftl.GCMode, telemetered bool) *SSD {
	t.Helper()
	cfg := tinyConfig()
	cfg.FTL.GCMode = mode
	cfg.LogicalUtilization = 0.75
	if telemetered {
		cfg.Telemetry = &telemetry.Config{Window: 100 * sim.Microsecond}
	}
	s := New(arch, cfg)
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("exchange-1", foot, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Host.MustReplay(tr.Requests)
	s.Run()
	return s
}

// TestTelemetryOffIsBitIdentical is the acceptance gate for the
// passivity contract: a run with the telemetry hooks compiled in but
// detached must execute the exact same event sequence as an
// instrumented run of the same workload — the collector observes, it
// never schedules.
func TestTelemetryOffIsBitIdentical(t *testing.T) {
	off := runTelemetered(t, ArchPnSSDSplit, ftl.GCSpatial, false)
	on := runTelemetered(t, ArchPnSSDSplit, ftl.GCSpatial, true)

	if off.Telemetry.Enabled() {
		t.Fatal("uninstrumented run has a live collector")
	}
	if !on.Telemetry.Enabled() {
		t.Fatal("instrumented run has no collector")
	}
	if a, b := off.Engine.EventsFired(), on.Engine.EventsFired(); a != b {
		t.Fatalf("event counts diverge: %d off vs %d on", a, b)
	}
	if a, b := off.Engine.Now(), on.Engine.Now(); a != b {
		t.Fatalf("end times diverge: %v vs %v", a, b)
	}
	mo, mt := off.Metrics(), on.Metrics()
	if mo.MeanLatency() != mt.MeanLatency() || mo.KIOPS() != mt.KIOPS() {
		t.Fatalf("metrics diverge: (%v, %v) vs (%v, %v)",
			mo.MeanLatency(), mo.KIOPS(), mt.MeanLatency(), mt.KIOPS())
	}
	if so, st := off.FTL.Stats(), on.FTL.Stats(); so != st {
		t.Fatalf("FTL stats diverge: %+v vs %+v", so, st)
	}
	if on.Telemetry.Requests() == 0 {
		t.Fatal("instrumented run attributed no requests")
	}
}

// TestAttributionSumsToEndToEnd is the per-request invariant across
// architectures and GC modes: every attributed request's phase
// durations must sum exactly to its end-to-end latency (FinishRequest
// verifies the identity per request; a nonzero violation count means a
// code path completed without marking its time).
func TestAttributionSumsToEndToEnd(t *testing.T) {
	for _, arch := range []Arch{ArchBase, ArchPSSD, ArchPnSSDSplit} {
		for _, mode := range []ftl.GCMode{ftl.GCParallel, ftl.GCSpatial} {
			s := runTelemetered(t, arch, mode, true)
			if n := s.Telemetry.Requests(); n != 400 {
				t.Fatalf("%v/%v: %d attributed requests, want 400", arch, mode, n)
			}
			if v := s.Telemetry.AttributionViolations(); v != 0 {
				t.Fatalf("%v/%v: %d attribution violations", arch, mode, v)
			}
		}
	}
}

// TestTelemetrySummaryRoundTrip checks the Summarize embedding: the
// telemetry section survives a JSON round trip with its series, phase
// rows, and per-kind phase-share structure intact.
func TestTelemetrySummaryRoundTrip(t *testing.T) {
	s := runTelemetered(t, ArchPnSSDSplit, ftl.GCSpatial, true)
	var buf bytes.Buffer
	if err := s.WriteSummaryJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	tel := sum.Telemetry
	if tel == nil {
		t.Fatal("summary has no telemetry section")
	}
	if tel.Windows <= 0 || tel.WindowUs != 100 {
		t.Fatalf("window shape: %d x %.0fus", tel.Windows, tel.WindowUs)
	}
	for _, name := range []string{"throughput", "bandwidth", "lat_mean", "lat_p50", "lat_p99", "gc_active", "gc_copies"} {
		sr := tel.SeriesByName(name)
		if sr == nil {
			t.Fatalf("series %q missing", name)
		}
		if len(sr.Values) != tel.Windows {
			t.Fatalf("series %q has %d values for %d windows", name, len(sr.Values), tel.Windows)
		}
	}
	// A GC-heavy run must show GC busy time somewhere.
	var gcBusy float64
	for _, v := range tel.SeriesByName("gc_active").Values {
		gcBusy += v
	}
	if gcBusy == 0 {
		t.Fatal("gc_active series is all zero on a GC-heavy run")
	}
	// Phase rows exist for both kinds and shares sum to ~1 per kind.
	shares := map[string]float64{}
	for _, p := range tel.Phases {
		shares[p.Kind] += p.Share
	}
	for _, kind := range []string{"read", "write"} {
		if sh := shares[kind]; sh < 0.999 || sh > 1.001 {
			t.Fatalf("%s phase shares sum to %v", kind, sh)
		}
	}
}

// TestTelemetryCounterTracksInChromeExport checks the Perfetto export:
// with tracing and telemetry both on, InjectTelemetryCounters renders
// every telemetry series as a "tel:" counter track.
func TestTelemetryCounterTracksInChromeExport(t *testing.T) {
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.LogicalUtilization = 0.75
	cfg.Trace = &trace.Config{Window: 100 * sim.Microsecond}
	cfg.Telemetry = &telemetry.Config{Window: 100 * sim.Microsecond}
	s := New(ArchPnSSDSplit, cfg)
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("exchange-1", foot, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Host.MustReplay(tr.Requests)
	s.Run()
	s.InjectTelemetryCounters()
	var buf bytes.Buffer
	if err := s.Tracer.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	tracks := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" && strings.HasPrefix(e.Name, "tel:") {
			if e.Cat != "telemetry" {
				t.Fatalf("counter %s has category %q", e.Name, e.Cat)
			}
			if len(e.Args) != 1 {
				t.Fatalf("counter %s carries %d args", e.Name, len(e.Args))
			}
			for unit, v := range e.Args {
				if _, ok := v.(float64); !ok {
					t.Fatalf("counter %s arg %q is not numeric: %v", e.Name, unit, v)
				}
			}
			tracks[e.Name]++
		}
	}
	sum := s.Telemetry.Summary(s.Engine.Now())
	if len(tracks) != len(sum.Series) {
		t.Fatalf("%d counter tracks for %d series", len(tracks), len(sum.Series))
	}
	for _, sr := range sum.Series {
		if tracks["tel:"+sr.Name] != len(sr.Values) {
			t.Fatalf("track tel:%s has %d points, series has %d",
				sr.Name, tracks["tel:"+sr.Name], len(sr.Values))
		}
	}
}

// TestTenantDepthSeries checks the front-end hook: a multi-tenant run
// with telemetry exports one qdepth series per tenant, and the
// bursty/throttled shape leaves nonzero standing depth somewhere.
func TestTenantDepthSeries(t *testing.T) {
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.LogicalUtilization = 0.75
	cfg.Telemetry = &telemetry.Config{Window: 100 * sim.Microsecond}
	specs := []workload.TenantSpec{
		{Name: "reader", Preset: "web-0", Requests: 120, Weight: 4},
		{Name: "writer", Preset: "update-0", Requests: 120, Weight: 1, Burst: 4},
	}
	cfg.Frontend = &host.FrontendConfig{
		Tenants:     workload.QueueConfigs(specs),
		Arbiter:     host.ArbWRR,
		MaxInflight: 2,
	}
	s := New(ArchPnSSDSplit, cfg)
	foot := cfg.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.GenerateTenants(specs, foot, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Frontend.Replay(tr.Requests); err != nil {
		t.Fatal(err)
	}
	s.Run()
	sum := s.Telemetry.Summary(s.Engine.Now())
	var sawDepth bool
	for _, name := range []string{"qdepth:reader", "qdepth:writer"} {
		sr := sum.SeriesByName(name)
		if sr == nil {
			t.Fatalf("series %q missing", name)
		}
		for _, v := range sr.Values {
			if v < 0 {
				t.Fatalf("%s has negative depth %v", name, v)
			}
			if v > 0 {
				sawDepth = true
			}
		}
	}
	if !sawDepth {
		t.Fatal("no tenant ever showed standing queue depth under MaxInflight=2")
	}
}

var updateTelemetryGolden = flag.Bool("update-telemetry", false, "rewrite testdata/telemetry_summary.json from this run")

// TestTelemetrySummaryGolden pins the telemetry document byte for byte
// on one short run that produces every per-device series kind: host
// throughput and latency, GC activity, Omnibus grant wait, per-tenant
// queue depth, fmmu map-cache hits and misses, and counted events of
// several classes.
func TestTelemetrySummaryGolden(t *testing.T) {
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.LogicalUtilization = 0.75
	cfg.Mapping = "fmmu"
	cfg.MapCacheEntries = 2
	cfg.Fault = &fault.Config{Seed: 5, ProgramFailRate: 0.01, GrantDropRate: 0.02}
	cfg.Telemetry = &telemetry.Config{Window: 100 * sim.Microsecond}
	specs := []workload.TenantSpec{
		{Name: "reader", Preset: "web-0", Requests: 150, Weight: 3},
		{Name: "writer", Preset: "rocksdb-1", Requests: 250, Weight: 1, Burst: 4},
	}
	cfg.Frontend = &host.FrontendConfig{
		Tenants:     workload.QueueConfigs(specs),
		Arbiter:     host.ArbWRR,
		MaxInflight: 4,
	}
	s := New(ArchPnSSDSplit, cfg)
	foot := cfg.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.GenerateTenants(specs, foot, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Frontend.Replay(tr.Requests); err != nil {
		t.Fatal(err)
	}
	s.Run()
	sum := s.Telemetry.Summary(s.Engine.Now())
	for _, name := range []string{"throughput", "gc_active", "gc_copies", "grant_wait", "grants",
		"qdepth:reader", "qdepth:writer", "map_hits", "map_misses"} {
		if sum.SeriesByName(name) == nil {
			t.Fatalf("series %q missing", name)
		}
	}
	var events int
	for _, sr := range sum.Series {
		if strings.HasPrefix(sr.Name, "event:") {
			events++
		}
	}
	if events < 2 {
		t.Fatalf("%d event:<class> series, want at least 2", events)
	}
	got, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/telemetry_summary.json"
	if *updateTelemetryGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("telemetry summary differs from %s (rerun with -update-telemetry to accept)", golden)
	}
}
