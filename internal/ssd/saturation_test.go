package ssd

import (
	"testing"

	"repro/internal/check"
	"repro/internal/ftl"
	"repro/internal/workload"
)

// saturatedEventsPerReq replays n rocksdb-1 requests on a pnSSD(+split)
// with SpGC and a quarter of the scaled geometry's blocks, small enough
// that both run lengths below sit past saturation in the compaction
// regime, and returns events fired per request. The checker is attached
// and must stay clean.
func saturatedEventsPerReq(t *testing.T, n int) float64 {
	t.Helper()
	cfg := ScaledConfig()
	cfg.Geometry.BlocksPerPlane = 4
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.LogicalUtilization = 0.75
	cfg.Check = &check.Config{}
	s := New(ArchPnSSDSplit, cfg)
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("rocksdb-1", foot, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	completed := s.Host.MustReplay(tr.Requests)
	s.Run() // panics on any violation
	if *completed != n {
		t.Fatalf("%d requests: completed %d", n, *completed)
	}
	if s.FTL.Stats().WriteStalls == 0 {
		t.Fatalf("%d requests never stalled a write; the device is not saturated", n)
	}
	return float64(s.Engine.EventsFired()) / float64(n)
}

// The saturation guard: past saturation every request costs a bounded
// number of events, so doubling the run must not grow the per-request
// cost. A wait that polls instead of being woken (the cost grows with
// the backlog it waits behind) breaks this.
func TestSaturatedRunEventsPerRequestStayFlat(t *testing.T) {
	const n = 4000
	at1, at2 := saturatedEventsPerReq(t, n), saturatedEventsPerReq(t, 2*n)
	if at2 > 1.5*at1 {
		t.Fatalf("events per request grew from %.1f at %d requests to %.1f at %d (limit 1.5x)", at1, n, at2, 2*n)
	}
}
