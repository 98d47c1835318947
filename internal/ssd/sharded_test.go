package ssd

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shardedArtifacts runs the fully instrumented determinism workload —
// GC-heavy SpGC on pnSSD+split with tracing, the invariant checker, and
// telemetry all live — at the given shard count (0 = plain serial
// engine) and scheduling policy ("" = default fifo) and returns every
// byte-addressable artifact: the run summary JSON, the Chrome trace
// export, and the telemetry document.
func shardedArtifacts(t *testing.T, shards int, sched string) (summary, chrome, tel []byte, s *SSD) {
	t.Helper()
	cfg := tinyConfig()
	cfg.FTL.GCMode = ftl.GCSpatial
	cfg.LogicalUtilization = 0.75
	cfg.Trace = &trace.Config{Window: 100 * sim.Microsecond}
	cfg.Check = &check.Config{}
	cfg.Telemetry = &telemetry.Config{Window: 100 * sim.Microsecond}
	cfg.Shards = shards
	cfg.Scheduler = sched
	s = New(ArchPnSSDSplit, cfg)
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	tr, err := workload.Named("exchange-1", foot, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Host.MustReplay(tr.Requests)
	end := s.Run() // checker enabled: a violation panics

	var sb bytes.Buffer
	if err := s.WriteSummaryJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := s.Tracer.ExportChrome(&cb); err != nil {
		t.Fatal(err)
	}
	doc, err := json.MarshalIndent(s.Telemetry.Summary(end), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return sb.Bytes(), cb.Bytes(), doc, s
}

// TestShardsByteIdentity is the tentpole's non-negotiable contract at
// the device level, pinned the same way internal/runner pinned
// -parallel: summary JSON, Chrome trace, and telemetry document are
// byte-identical at every shard count — serial engine, shards=1, 2, and
// 4 — with the full invariant checker clean on each run.
func TestShardsByteIdentity(t *testing.T) {
	refSummary, refChrome, refTel, ref := shardedArtifacts(t, 0, "")
	if ref.Sharded != nil {
		t.Fatal("serial run built a sharded engine")
	}
	for _, shards := range []int{1, 2, 4} {
		summary, chrome, tel, s := shardedArtifacts(t, shards, "")
		if shards > 1 {
			if s.Sharded == nil || s.Partition == nil {
				t.Fatalf("shards=%d run has no sharded engine/partition", shards)
			}
			if s.Sharded.Shard(0) != s.Engine {
				t.Fatalf("shards=%d: SSD.Engine is not shard 0", shards)
			}
			if w := s.Sharded.Window(); w != s.Fabric.Lookahead() {
				t.Fatalf("shards=%d window %v, want fabric lookahead %v", shards, w, s.Fabric.Lookahead())
			}
		} else if s.Sharded != nil {
			t.Fatal("shards=1 should run the serial engine directly")
		}
		if !bytes.Equal(summary, refSummary) {
			t.Fatalf("shards=%d summary JSON diverges from serial (%d vs %d bytes)", shards, len(summary), len(refSummary))
		}
		if !bytes.Equal(chrome, refChrome) {
			t.Fatalf("shards=%d Chrome trace diverges from serial (%d vs %d bytes)", shards, len(chrome), len(refChrome))
		}
		if !bytes.Equal(tel, refTel) {
			t.Fatalf("shards=%d telemetry document diverges from serial (%d vs %d bytes)", shards, len(tel), len(refTel))
		}
		if a, b := s.Engine.EventsFired(), ref.Engine.EventsFired(); a != b {
			t.Fatalf("shards=%d fired %d events, serial fired %d", shards, a, b)
		}
	}
}

// TestPartitionPlan pins the topology-natural shard maps: h-channel
// pairs on bus fabrics, v-channel columns on Omnibus, rows on the mesh —
// controller complex always on shard 0, effective shard count capped at
// groups+1.
func TestPartitionPlan(t *testing.T) {
	cfg := tinyConfig() // 4 channels x 4 ways
	cases := []struct {
		arch      Arch
		requested int
		groups    int
		shards    int
	}{
		{ArchBase, 4, 2, 3}, // 2 channel pairs -> at most 3 shards
		{ArchPSSD, 2, 2, 2},
		{ArchPnSSD, 8, 4, 5}, // numV = min(4,4) = 4 columns
		{ArchPnSSDSplit, 4, 4, 4},
		{ArchNoSSDPin, 16, 4, 5}, // one group per row
	}
	for _, tc := range cases {
		p := PlanPartition(tc.arch, cfg, tc.requested, sim.Microsecond)
		if p.Groups != tc.groups || p.Shards != tc.shards {
			t.Fatalf("%v requested=%d: groups=%d shards=%d, want %d/%d",
				tc.arch, tc.requested, p.Groups, p.Shards, tc.groups, tc.shards)
		}
		seen := make(map[int]bool)
		for ch := 0; ch < cfg.Channels; ch++ {
			for w := 0; w < cfg.Ways; w++ {
				sh := p.ShardOf(chipID(ch, w))
				if sh < 1 || sh >= p.Shards {
					t.Fatalf("%v chip ch%d/w%d on shard %d outside [1,%d)", tc.arch, ch, w, sh, p.Shards)
				}
				seen[sh] = true
			}
		}
		if len(seen) != p.Shards-1 {
			t.Fatalf("%v: chips cover %d shards, want all %d worker shards", tc.arch, len(seen), p.Shards-1)
		}
	}
	// Chips sharing a seam share a shard.
	p := PlanPartition(ArchBase, cfg, 4, sim.Microsecond)
	if p.ShardOf(chipID(0, 0)) != p.ShardOf(chipID(1, 3)) {
		t.Fatal("baseSSD: channels 0 and 1 form a pair but landed on different shards")
	}
	p = PlanPartition(ArchPnSSD, cfg, 8, sim.Microsecond)
	if p.ShardOf(chipID(0, 2)) != p.ShardOf(chipID(3, 2)) {
		t.Fatal("pnSSD: way-column 2 split across shards")
	}
	if p.ShardOf(chipID(0, 1)) == p.ShardOf(chipID(0, 2)) {
		t.Fatal("pnSSD: distinct v-columns collapsed onto one shard with shards > columns")
	}
}

// TestShardedZeroLookaheadFallsBackSerial: the control-plane ablation
// can drive an Omnibus fabric's minimum cross-group latency to zero;
// a sharded device must then drain serially (there is no lookahead to
// window on) and still finish clean.
func TestShardedZeroLookaheadFallsBackSerial(t *testing.T) {
	cfg := tinyConfig()
	cfg.Shards = 4
	s := New(ArchPnSSD, cfg)
	s.Soc.SetCtrlMsgLatency(0)
	if la := s.Fabric.Lookahead(); la != 0 {
		t.Fatalf("lookahead %v after zeroing control-plane latency, want 0", la)
	}
	foot := s.Config.LogicalPages()
	s.Host.Warmup(foot)
	gen := workload.Synthetic(workload.RandRead, 256, 4, 11)
	s.Host.RunClosedLoop(gen, 4, 64)
	s.Run()
	if s.Sharded.Windows() != 0 {
		t.Fatalf("zero-lookahead drain still ran %d lockstep windows", s.Sharded.Windows())
	}
	if got := s.Metrics().TotalRequests(); got != 64 {
		t.Fatalf("completed %d/64 requests on the serial fallback", got)
	}
}

func chipID(ch, w int) controller.ChipID { return controller.ChipID{Channel: ch, Way: w} }
