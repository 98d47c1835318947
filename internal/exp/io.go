package exp

import (
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig3Result holds the channel-utilization imbalance analysis: one
// utilization matrix (channels × time windows) per access direction, with
// the aggregate imbalance index.
type Fig3Result struct {
	Trace          string
	ReadRows       [][]float64
	WriteRows      [][]float64
	ReadImbalance  float64
	WriteImbalance float64
}

// Fig3 reproduces the Fig 3 analysis on a baseline SSD: replay the reads
// and the writes of a skewed trace separately and record per-channel
// utilization in sim.DefaultWindow windows. Reads inherit the workload's
// skew (imbalanced); writes are placed by the FTL's striping policy
// (balanced).
func Fig3(opt Options) Fig3Result {
	opt = opt.withDefaults()
	trace := "exchange-1"
	full, err := workload.Named(trace, opt.Cfg.LogicalPages()*7/8, opt.TraceRequests, opt.Seed)
	if err != nil {
		panic(err)
	}
	run := func(kind stats.IOKind) [][]float64 {
		s := build(ssd.ArchBase, *opt.Cfg, ftl.GCNone, ftl.PCWD)
		warm(s, 0, opt.Seed)
		// baseSSD's buses are its h-channels, one recorder each.
		var recs []*sim.UtilRecorder
		for _, b := range s.Buses() {
			u := sim.NewUtilRecorder(sim.DefaultWindow)
			b.Channel.AddObserver(u)
			recs = append(recs, u)
		}
		var reqs []host.Request
		for _, r := range full.Requests {
			if r.Kind == kind {
				reqs = append(reqs, r)
			}
		}
		s.Host.MustReplay(reqs)
		s.Run()
		// One row per channel, all padded to the longest row.
		width := 0
		for _, u := range recs {
			width = max(width, u.Len())
		}
		rows := make([][]float64, len(recs))
		for i, u := range recs {
			rows[i] = u.Values(width, float64(sim.DefaultWindow))
		}
		return rows
	}
	rows := runner.MapDefault(2, func(i int) [][]float64 {
		return run([]stats.IOKind{stats.Read, stats.Write}[i])
	})
	readRows, writeRows := rows[0], rows[1]
	return Fig3Result{
		Trace:          trace,
		ReadRows:       readRows,
		WriteRows:      writeRows,
		ReadImbalance:  stats.ImbalanceOfRows(readRows),
		WriteImbalance: stats.ImbalanceOfRows(writeRows),
	}
}

// Fig4Row is the bandwidth-sweep result for one trace.
type Fig4Row struct {
	Trace   string
	Speedup map[float64]float64 // bus scale factor -> mean-latency speedup vs 1.0x
}

// Fig4 reproduces the motivation sweep: raise the flash channel bandwidth
// of the baseline SSD toward 2x and measure the I/O performance gain per
// trace (the paper reports an 85% average gain at 2x, up to 6x for
// skewed workloads).
func Fig4(opt Options) []Fig4Row {
	opt = opt.withDefaults()
	scales := []float64{1.0, 1.25, 1.5, 2.0}
	// One independent run per (trace, scale) point, fanned across workers;
	// speedups are assembled afterwards from the ordered results.
	lats := runner.MapDefault(len(opt.Traces)*len(scales), func(i int) sim.Time {
		trace, sc := opt.Traces[i/len(scales)], scales[i%len(scales)]
		cfg := *opt.Cfg
		cfg.BusMTps = int(float64(cfg.BusMTps) * sc)
		m, _ := replayTrace(ssd.ArchBase, cfg, ftl.GCNone, trace, opt.TraceRequests, 0, opt.Seed)
		return m.MeanLatency()
	})
	rows := make([]Fig4Row, 0, len(opt.Traces))
	for ti, trace := range opt.Traces {
		row := Fig4Row{Trace: trace, Speedup: make(map[float64]float64, len(scales))}
		for si, sc := range scales {
			row.Speedup[sc] = speedup(lats[ti*len(scales)], lats[ti*len(scales)+si])
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig14Row holds per-trace, per-architecture latency results with GC off.
type Fig14Row struct {
	Trace       string
	Latency     map[ssd.Arch]sim.Time
	Improvement map[ssd.Arch]float64 // vs baseSSD
	KIOPS       map[ssd.Arch]float64 // the Fig 15 series from the same runs
}

// Fig14 reproduces Figs 14 and 15: every Table III architecture replays
// every trace with garbage collection disabled; results are mean I/O
// latency (Fig 14, normalized to baseSSD) and throughput in KIOPS
// (Fig 15).
func Fig14(opt Options) []Fig14Row {
	opt = opt.withDefaults()
	type point struct {
		lat   sim.Time
		kiops float64
	}
	pts := runner.MapDefault(len(opt.Traces)*len(ssd.Archs), func(i int) point {
		trace, arch := opt.Traces[i/len(ssd.Archs)], ssd.Archs[i%len(ssd.Archs)]
		m, _ := replayTrace(arch, *opt.Cfg, ftl.GCNone, trace, opt.TraceRequests, 0, opt.Seed)
		return point{lat: m.MeanLatency(), kiops: m.KIOPS()}
	})
	rows := make([]Fig14Row, 0, len(opt.Traces))
	for ti, trace := range opt.Traces {
		row := Fig14Row{
			Trace:       trace,
			Latency:     make(map[ssd.Arch]sim.Time),
			Improvement: make(map[ssd.Arch]float64),
			KIOPS:       make(map[ssd.Arch]float64),
		}
		for ai, arch := range ssd.Archs {
			p := pts[ti*len(ssd.Archs)+ai]
			row.Latency[arch] = p.lat
			row.KIOPS[arch] = p.kiops
		}
		for _, arch := range ssd.Archs {
			row.Improvement[arch] = improvement(row.Latency[ssd.ArchBase], row.Latency[arch])
		}
		rows = append(rows, row)
	}
	return rows
}

// MeanImprovement aggregates Fig14 rows into the paper's headline
// per-architecture averages.
func MeanImprovement(rows []Fig14Row) map[ssd.Arch]float64 {
	out := make(map[ssd.Arch]float64)
	for _, arch := range ssd.Archs {
		var sp []float64
		for _, r := range rows {
			sp = append(sp, 1+r.Improvement[arch])
		}
		out[arch] = geomean(sp) - 1
	}
	return out
}

// Fig16Point is one (outstanding, latency) sample of the synthetic sweep.
type Fig16Point struct {
	Outstanding int
	Latency     sim.Time
}

// Fig16Row is one architecture's curve for one pattern.
type Fig16Row struct {
	Pattern workload.Pattern
	Arch    ssd.Arch
	Points  []Fig16Point
}

// Fig16 reproduces the PCWD synthetic sweep of Fig 16: 64 KB sequential
// and random reads and writes, outstanding I/O count swept to 64, with
// the channel-balancing PCWD allocation policy.
func Fig16(opt Options) []Fig16Row { return syntheticSweep(opt, ftl.PCWD) }

// Fig17 reproduces Fig 17: the same sweep under the way-first PWCD policy
// that concentrates consecutive requests on one channel, rewarding the
// path diversity of pnSSD.
func Fig17(opt Options) []Fig16Row { return syntheticSweep(opt, ftl.PWCD) }

func syntheticSweep(opt Options, policy ftl.AllocPolicy) []Fig16Row {
	opt = opt.withDefaults()
	outs := []int{1, 2, 4, 8, 16, 32, 64}
	patterns := []workload.Pattern{workload.SeqRead, workload.RandRead, workload.SeqWrite, workload.RandWrite}
	// The full (pattern, arch, outstanding) cube is one flat job space.
	lats := runner.MapDefault(len(patterns)*len(ssd.Archs)*len(outs), func(i int) sim.Time {
		p := patterns[i/(len(ssd.Archs)*len(outs))]
		arch := ssd.Archs[i/len(outs)%len(ssd.Archs)]
		o := outs[i%len(outs)]
		m := runClosedLoop(arch, *opt.Cfg, policy, p, o, opt.SyntheticRequests, opt.Seed)
		return m.MeanLatency()
	})
	var rows []Fig16Row
	for pi, p := range patterns {
		for ai, arch := range ssd.Archs {
			row := Fig16Row{Pattern: p, Arch: arch}
			for oi, o := range outs {
				row.Points = append(row.Points, Fig16Point{
					Outstanding: o,
					Latency:     lats[(pi*len(ssd.Archs)+ai)*len(outs)+oi],
				})
			}
			rows = append(rows, row)
		}
	}
	return rows
}
