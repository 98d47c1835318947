// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each bench regenerates its artifact through the same
// internal/exp runner the cmd/experiments tool uses and reports the
// headline quantity as a custom metric, so `go test -bench=. -benchmem`
// reprints the whole evaluation.
//
// Benches run at the Quick experiment scale; pass -benchtime=1x (the
// numbers are simulation outputs, not wall-clock measurements, so one
// iteration is meaningful).
package main

import (
	"fmt"
	"testing"

	"repro/internal/array"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

func quickOpts() exp.Options { return exp.Quick() }

// BenchmarkFig01Trend regenerates the motivation trend data and reports
// the chip-vs-bus bandwidth growth gap.
func BenchmarkFig01Trend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chip, bus := exp.Fig1()
		chipGrowth := chip[len(chip)-1].MBps / chip[0].MBps
		busGrowth := bus[len(bus)-1].MBps / bus[0].MBps
		b.ReportMetric(chipGrowth, "chip-growth-x")
		b.ReportMetric(busGrowth, "bus-growth-x")
	}
}

// BenchmarkFig03Imbalance reports the read vs write channel imbalance
// indices on the exchange-1 trace (baseSSD).
func BenchmarkFig03Imbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Fig3(quickOpts())
		b.ReportMetric(res.ReadImbalance, "read-imbalance")
		b.ReportMetric(res.WriteImbalance, "write-imbalance")
	}
}

// BenchmarkFig04BandwidthSweep reports the mean speedup from doubling the
// flash channel bandwidth on the baseline SSD.
func BenchmarkFig04BandwidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Fig4(quickOpts())
		var sum float64
		for _, r := range rows {
			sum += r.Speedup[2.0]
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-2x-speedup")
	}
}

// BenchmarkFig06ReadTiming reports the conventional vs packetized read
// transaction totals.
func BenchmarkFig06ReadTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Fig6(ssd.DefaultConfig())
		b.ReportMetric(res.ConvTotal.Microseconds(), "conventional-us")
		b.ReportMetric(res.PktTotal.Microseconds(), "packetized-us")
	}
}

// BenchmarkFig08PacketOverhead reports the total wire overhead for a
// 16 KB page transfer.
func BenchmarkFig08PacketOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Fig8()
		for _, r := range res.Rows {
			if r.PayloadBytes == 16384 {
				b.ReportMetric(r.Overhead*100, "16KB-overhead-pct")
			}
		}
	}
}

// BenchmarkFig14Latency reports the geomean I/O latency improvement of
// pSSD, pnSSD, and pnSSD(+split) over baseSSD with GC off.
func BenchmarkFig14Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Fig14(quickOpts())
		mean := exp.MeanImprovement(rows)
		b.ReportMetric(mean[ssd.ArchPSSD]*100, "pssd-improvement-pct")
		b.ReportMetric(mean[ssd.ArchPnSSD]*100, "pnssd-improvement-pct")
		b.ReportMetric(mean[ssd.ArchPnSSDSplit]*100, "split-improvement-pct")
		b.ReportMetric(mean[ssd.ArchNoSSDPin]*100, "nossd-pin-improvement-pct")
	}
}

// BenchmarkFig15Throughput reports KIOPS for baseSSD and pnSSD(+split)
// across the trace suite (same runs as Fig 14).
func BenchmarkFig15Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Fig14(quickOpts())
		var base, split float64
		for _, r := range rows {
			base += r.KIOPS[ssd.ArchBase]
			split += r.KIOPS[ssd.ArchPnSSDSplit]
		}
		b.ReportMetric(base/float64(len(rows)), "base-kiops")
		b.ReportMetric(split/float64(len(rows)), "split-kiops")
	}
}

// BenchmarkFig16PCWD reports the 64-outstanding random-read latency under
// the channel-balancing PCWD policy for baseSSD and pSSD.
func BenchmarkFig16PCWD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Fig16(quickOpts())
		reportSweep(b, rows)
	}
}

// BenchmarkFig17PWCD reports the same sweep under the imbalanced PWCD
// policy, where path diversity pays off.
func BenchmarkFig17PWCD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Fig17(quickOpts())
		reportSweep(b, rows)
	}
}

func reportSweep(b *testing.B, rows []exp.Fig16Row) {
	b.Helper()
	for _, r := range rows {
		if r.Pattern != workload.RandRead {
			continue
		}
		last := r.Points[len(r.Points)-1].Latency.Microseconds()
		switch r.Arch {
		case ssd.ArchBase:
			b.ReportMetric(last, "base-randread64-us")
		case ssd.ArchPSSD:
			b.ReportMetric(last, "pssd-randread64-us")
		case ssd.ArchPnSSDSplit:
			b.ReportMetric(last, "split-randread64-us")
		}
	}
}

// BenchmarkFig18GCSynthetic reports the read improvement of pnSSD with
// spatial GC over the baseline with parallel GC while collection runs
// continuously.
func BenchmarkFig18GCSynthetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Fig18(quickOpts())
		for _, r := range rows {
			if r.Config.Arch == ssd.ArchPnSSD && r.Config.Mode == ftl.GCSpatial {
				b.ReportMetric(r.ReadImprovement*100, "pnssd-spgc-read-improvement-pct")
				b.ReportMetric(r.WriteImprovement*100, "pnssd-spgc-write-improvement-pct")
			}
		}
	}
}

// BenchmarkFig19GCTraces reports the trace-driven improvement of
// pnSSD(+split) with SpGC over baseSSD with PaGC.
func BenchmarkFig19GCTraces(b *testing.B) {
	opt := quickOpts()
	opt.Traces = []string{"rocksdb-1"}
	for i := 0; i < b.N; i++ {
		rows := exp.Fig19(opt)
		r := rows[0]
		b.ReportMetric(r.Improvement["pnSSD(+split)(SpGC)"]*100, "split-spgc-improvement-pct")
		b.ReportMetric(r.Improvement["pSSD(SpGC)"]*100, "pssd-spgc-improvement-pct")
		b.ReportMetric(r.Improvement["baseSSD(Preemptive)"]*100, "base-preemptive-improvement-pct")
	}
}

// BenchmarkFig20aTail reports the p99 tail latency ratio between the
// baseline and pnSSD(+split) with spatial GC on rocksdb-0.
func BenchmarkFig20aTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Fig20a(quickOpts())
		base := rows[0]
		pn := rows[len(rows)-1]
		b.ReportMetric(base.P99.Microseconds(), "base-p99-us")
		b.ReportMetric(pn.P99.Microseconds(), "pnssd-p99-us")
		b.ReportMetric(float64(base.P99)/float64(pn.P99), "p99-reduction-x")
	}
}

// BenchmarkFig20bGCTime reports the mean GC round time for the baseline
// and pnSSD(+split).
func BenchmarkFig20bGCTime(b *testing.B) {
	opt := quickOpts()
	opt.Traces = []string{"rocksdb-1"}
	for i := 0; i < b.N; i++ {
		rows := exp.Fig20b(opt)
		b.ReportMetric(rows[0].MeanGCTime.Milliseconds(), "base-gc-ms")
		b.ReportMetric(rows[len(rows)-1].MeanGCTime.Milliseconds(), "pnssd-gc-ms")
	}
}

// BenchmarkArrayRouter measures the erasure-coded array router alone —
// shard placement, degraded-read reconstruction, retry-ladder routing,
// and the throttled rebuild schedule for a mixed trace with one
// mid-trace device kill. No device simulation runs, so ns/op tracks
// pure planning throughput; device-ops is the fan-out the plan emits.
func BenchmarkArrayRouter(b *testing.B) {
	dc := ssd.ScaledConfig()
	dc.Channels, dc.Ways = 2, 2
	dc.Geometry.Planes = 2
	dc.Geometry.BlocksPerPlane = 8
	dc.Geometry.PagesPerBlock = 16
	dc.LogicalUtilization = 0.75
	cfg := array.Config{
		Arch:   ssd.ArchPnSSDSplit,
		Device: dc,
		Data:   2, Parity: 1,
		Groups:             2,
		Spares:             1,
		Seed:               1,
		RebuildPagesPerSec: 200_000,
		Failures:           []fault.DeviceEvent{{Device: 0, At: 2 * sim.Millisecond}},
	}
	cfg = cfg.WithDefaults()
	tr, err := workload.Named("rocksdb-0", cfg.LogicalPages(), 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := array.BuildPlan(cfg, tr.Requests)
		b.ReportMetric(float64(p.DeviceOps()), "device-ops")
		b.ReportMetric(float64(p.RAS.DegradedReads), "degraded-reads")
	}
}

// BenchmarkArraySweep regenerates the rack-scale array study and reports
// the rebuild-interference headline: p99 while rebuilding vs healthy,
// for SpGC on pnSSD+split.
func BenchmarkArraySweep(b *testing.B) {
	opt := quickOpts()
	opt.TraceRequests = 200
	for i := 0; i < b.N; i++ {
		rows := exp.ArraySweep(opt)
		for _, r := range rows {
			if r.Arch == ssd.ArchPnSSDSplit && r.GC == ftl.GCSpatial {
				switch r.Scenario {
				case exp.ArrayHealthy:
					b.ReportMetric(r.P99.Milliseconds(), "healthy-p99-ms")
				case exp.ArrayRebuilding:
					b.ReportMetric(r.P99.Milliseconds(), "rebuild-p99-ms")
					b.ReportMetric(r.RebuildTime.Milliseconds(), "rebuild-ms")
				}
			}
		}
	}
}

// BenchmarkSpGCSaturated is the saturation guard: rocksdb-1 on
// pnSSD(+split) with SpGC at 8k and 16k requests on the scaled device,
// the lengths on either side of the point where it saturates into a
// whole-device compaction. It reports events per request and write
// stalls (host writes that ever parked on space), both deterministic, so
// a wait loop that polls instead of being woken shows up as a jump in
// events per request.
func BenchmarkSpGCSaturated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{8000, 16000} {
			cfg := ssd.ScaledConfig()
			cfg.FTL.GCMode = ftl.GCSpatial
			cfg.LogicalUtilization = 0.75
			s := ssd.New(ssd.ArchPnSSDSplit, cfg)
			foot := s.Config.LogicalPages()
			s.Host.Warmup(foot)
			tr, err := workload.Named("rocksdb-1", foot, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			s.Host.MustReplay(tr.Requests)
			s.Run()
			k := fmt.Sprintf("%dk-", n/1000)
			b.ReportMetric(float64(s.Engine.EventsFired())/float64(n), k+"events-per-req")
			b.ReportMetric(float64(s.FTL.Stats().WriteStalls), k+"write-stalls")
		}
	}
}

// BenchmarkTable02Config exercises building a full Table II device (no
// workload), reporting raw capacity.
func BenchmarkTable02Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := ssd.DefaultConfig()
		b.ReportMetric(float64(cfg.RawPages()), "raw-pages")
	}
}

// BenchmarkTable03Architectures constructs every Table III architecture
// and performs a smoke I/O on each.
func BenchmarkTable03Architectures(b *testing.B) {
	cfg := quickOpts().Cfg
	for i := 0; i < b.N; i++ {
		for _, arch := range ssd.Archs {
			s := ssd.New(arch, *cfg)
			s.Host.Warmup(64)
			s.Host.RunClosedLoop(workload.Synthetic(workload.RandRead, 64, 1, 1), 2, 8)
			s.Run()
		}
	}
}

// BenchmarkEngineThroughput measures raw event-loop performance: 16
// actors issuing timed holds over 4 contended resources, ~1.6M events
// per iteration, reported as events/sec. This is the engine's pure fast
// path (event queue push/pop across its same-instant lane, in-order lane
// and 4-ary heap, plus the allocation-free timed hold), with no SSD
// model code diluting the measurement.
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	var fired int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		var chans [4]*sim.Resource
		for c := range chans {
			chans[c] = sim.NewResource(e, "ch")
		}
		const actors = 16
		const holdsPerActor = 50_000
		for a := 0; a < actors; a++ {
			a := a
			n := 0
			var issue func()
			issue = func() {
				n++
				if n <= holdsPerActor {
					chans[a%len(chans)].Use(sim.Time(1+a%7), issue)
				}
			}
			issue()
		}
		e.Run()
		fired += e.EventsFired()
	}
	b.StopTimer()
	if ns := b.Elapsed().Nanoseconds(); ns > 0 {
		b.ReportMetric(float64(fired)*1e9/float64(ns), "events/sec")
	}
}

// BenchmarkSchedPick regenerates the controller-scheduling study on the
// GC-pressure workload and reports the wires-vs-scheduling headline:
// pSSD read p99 under each policy against the pnSSD(+split)/fifo target,
// plus the decision counters that show the policies actually engaged.
// The deterministic metrics (p99s, deferred, reordered) are what the
// bench-regression gate pins; ns/op is excluded by benchjson -diff.
func BenchmarkSchedPick(b *testing.B) {
	opt := quickOpts()
	opt.TraceRequests = 250
	for i := 0; i < b.N; i++ {
		rows := exp.SchedSweep(opt)
		var deferred, reordered int64
		for _, r := range rows {
			deferred += r.Deferred
			reordered += r.Reordered
			if !r.Point.SpGC {
				continue
			}
			switch {
			case r.Point.Arch == ssd.ArchPSSD && r.Point.Sched == "fifo":
				b.ReportMetric(r.P99.Microseconds(), "pssd-fifo-p99-us")
			case r.Point.Arch == ssd.ArchPSSD && r.Point.Sched == "conflict":
				b.ReportMetric(r.P99.Microseconds(), "pssd-conflict-p99-us")
			case r.Point.Arch == ssd.ArchPSSD && r.Point.Sched == "ooo":
				b.ReportMetric(r.P99.Microseconds(), "pssd-ooo-p99-us")
			case r.Point.Arch == ssd.ArchPnSSDSplit && r.Point.Sched == "fifo":
				b.ReportMetric(r.P99.Microseconds(), "split-fifo-p99-us")
			}
		}
		b.ReportMetric(float64(deferred), "deferred")
		b.ReportMetric(float64(reordered), "reordered")
	}
}

// BenchmarkMapLookup drives the fmmu map unit's lookup path: a random
// read stream over a device whose map cache holds a quarter of the
// translation pages, so the stream mixes cache hits with demand fetches
// through the fabric. The deterministic metrics (miss rate, fetches)
// pin the cache's behavior; ns/op tracks the lookup overhead trend.
func BenchmarkMapLookup(b *testing.B) {
	cfg := ssd.ScaledConfig()
	cfg.Geometry.BlocksPerPlane = 8
	cfg.Geometry.PagesPerBlock = 16
	cfg.Mapping = "fmmu"
	numT := int((cfg.LogicalPages() + int64(cfg.Geometry.PageSize/8) - 1) / int64(cfg.Geometry.PageSize/8))
	cfg.MapCacheEntries = numT / 4
	for i := 0; i < b.N; i++ {
		s := ssd.New(ssd.ArchPnSSDSplit, cfg)
		foot := s.Config.LogicalPages()
		s.Host.Warmup(foot)
		s.Host.RunClosedLoop(workload.Synthetic(workload.RandRead, foot, 4, 1), 16, 400)
		s.Run()
		ms := s.FTL.MapStats()
		b.ReportMetric(ms.MissRate()*100, "miss-pct")
		b.ReportMetric(float64(ms.Fetches), "fetches")
		b.ReportMetric(s.Metrics().Combined().P99().Microseconds(), "p99-us")
	}
}

// BenchmarkFMMUSweep regenerates the map-cache-size x workload-skew
// ablation and reports the headline cells: the flat baseline against
// the smallest and effectively-infinite fmmu caches per skew. The p99s
// and total misses are deterministic; benchjson -diff pins them.
func BenchmarkFMMUSweep(b *testing.B) {
	opt := quickOpts()
	opt.TraceRequests = 250
	for i := 0; i < b.N; i++ {
		rows := exp.FmmuSweep(opt)
		var misses int64
		small := map[string]int{"low": 1 << 30, "high": 1 << 30}
		for _, r := range rows {
			misses += r.MapMisses
			if r.Point.Mapping == "fmmu" && r.Point.Entries < small[r.Point.Skew] {
				small[r.Point.Skew] = r.Point.Entries
			}
		}
		for _, r := range rows {
			switch {
			case r.Point.Mapping == "flat" && r.Point.Skew == "low":
				b.ReportMetric(r.P99.Microseconds(), "flat-low-p99-us")
			case r.Point.Mapping == "flat" && r.Point.Skew == "high":
				b.ReportMetric(r.P99.Microseconds(), "flat-high-p99-us")
			case r.Point.Entries == small[r.Point.Skew] && r.Point.Skew == "low":
				b.ReportMetric(r.P99.Microseconds(), "fmmu-small-low-p99-us")
			case r.Point.Entries == small[r.Point.Skew] && r.Point.Skew == "high":
				b.ReportMetric(r.P99.Microseconds(), "fmmu-small-high-p99-us")
			}
		}
		b.ReportMetric(float64(misses), "map-misses")
	}
}

// BenchmarkResourceHold measures one timed hold (Use → grant → release)
// on an idle resource. The acceptance bar for the engine fast path is 0
// allocs/op here: no closure pair, no boxing, reused event storage.
func BenchmarkResourceHold(b *testing.B) {
	e := sim.NewEngine()
	r := sim.NewResource(e, "ch")
	for i := 0; i < 8; i++ {
		r.Use(10, nil) // warm event and waiter storage
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Use(10, nil)
		e.Run()
	}
}

// BenchmarkAblationRouting reports the routing-policy ablation: h-only vs
// the paper's greedy vs the future-work JSQ router under read skew.
func BenchmarkAblationRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.AblationRouting(quickOpts())
		b.ReportMetric(rows[0].Latency.Microseconds(), "h-only-us")
		b.ReportMetric(rows[1].Latency.Microseconds(), "greedy-us")
		b.ReportMetric(rows[3].Latency.Microseconds(), "jsq-us")
	}
}

// BenchmarkAblationVWidth reports the v-channel width sweep endpoints.
func BenchmarkAblationVWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.AblationVWidth(quickOpts())
		b.ReportMetric(rows[0].Latency.Microseconds(), "v2bit-us")
		b.ReportMetric(rows[2].Latency.Microseconds(), "v8bit-us")
	}
}

// BenchmarkAblationGCGroup reports the SpGC group-fraction trade-off.
func BenchmarkAblationGCGroup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.AblationGCGroup(quickOpts())
		b.ReportMetric(rows[0].Latency.Microseconds(), "group25-us")
		b.ReportMetric(rows[1].Latency.Microseconds(), "group50-us")
	}
}

// BenchmarkAblationEcc reports the hybrid-ECC fallback sweep endpoints.
func BenchmarkAblationEcc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.AblationEccFallback(quickOpts())
		b.ReportMetric(rows[0].Latency.Microseconds(), "ecc0-us")
		b.ReportMetric(rows[len(rows)-1].Latency.Microseconds(), "ecc100-us")
	}
}
