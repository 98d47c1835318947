package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// breakdown is the traced mode. It takes the first of the run's inputs
// that falls into the workload's usual GC regime (input 0 for read-nogc,
// the last input if none does) and repeats on it, round after round
// until the time budget is spent, four simulations: untraced, with the
// repository's tracer, with its invariant checker, and through the
// benchmark's own spans and observers. The last gives the per-layer
// figures; the wall-clock of the others against the untraced one gives
// each instrument's overhead.
func breakdown(w spec, seed int64, budget time.Duration, spansOut string, log io.Writer) (result, error) {
	var res result
	var plain, traced, checked, spanned, builds, warms, gens []float64
	var p *probes
	record := func(what string, o outcome) {
		res.tally(o)
		if o.err != nil {
			fmt.Fprintf(log, "%s %s: %v\n", w.name, what, o.err)
		}
	}
	untracedRun := func(in int64) (outcome, error) {
		settle()
		o, st, err := w.simulate(in, nil)
		if err != nil {
			return o, err
		}
		record("untraced", o)
		plain = append(plain, float64(o.wallNs))
		builds = append(builds, float64(st.buildNs))
		warms = append(warms, float64(st.warmNs))
		gens = append(gens, float64(st.genNs))
		return o, nil
	}
	begin := time.Now()
	var in int64
	var ref outcome
	for i := 0; i < inputsPerRun; i++ {
		in = subSeed(seed, i)
		plain, builds, warms, gens = nil, nil, nil, nil // only the chosen input's timings count
		var err error
		if ref, err = untracedRun(in); err != nil {
			return res, err
		}
		fmt.Fprintf(log, "%s seed %d: %s\n", w.name, in, ref.regimeLine())
		if ref.compacted == w.compacts {
			break
		}
	}
	if ref.compacted != w.compacts {
		fmt.Fprintf(log, "%s: no input of seed %d ran the usual regime; breaking down the %s seed %d\n", w.name, seed, ref.gcRegime(), in)
	}
	for round := 0; round == 0 || time.Since(begin) < budget; round++ {
		if round > 0 {
			if _, err := untracedRun(in); err != nil {
				return res, err
			}
		}
		settle()
		o, _, err := w.simulate(in, func(c *ssd.Config) { c.Trace = &trace.Config{} })
		if err != nil {
			return res, err
		}
		record("with Config.Trace", o)
		traced = append(traced, float64(o.wallNs))

		settle()
		o, _, err = w.simulate(in, func(c *ssd.Config) { c.Check = &check.Config{} })
		if err != nil {
			return res, err
		}
		record("with Config.Check", o)
		checked = append(checked, float64(o.wallNs))

		settle()
		o, p, err = w.tracedRun(in)
		if err != nil {
			return res, err
		}
		if o.err == nil && o.simStats != ref.simStats {
			o.err = fmt.Errorf("traced run diverged from the untraced run:\n  traced   %+v\n  untraced %+v", o.simStats, ref.simStats)
		}
		if o.err == nil {
			o.err = p.accounted(o.wallNs)
		}
		record("traced", o)
		spanned = append(spanned, float64(o.wallNs))
	}
	res.Correct = res.Failed == 0
	overhead := func(xs []float64) float64 { return (median(xs) - median(plain)) / median(plain) * 100 }
	layerMetrics(&res, ref, p)
	res.set("sim.events_per_host_s", float64(ref.events)/(median(plain)/1e9), "1/s")
	res.set("host.warmup_ms", median(warms)/1e6, "ms")
	res.set("workload.gen_ms", median(gens)/1e6, "ms")
	res.set("ssd.build_ms", median(builds)/1e6, "ms")
	res.set("trace.overhead_pct", overhead(traced), "%")
	res.set("check.overhead_pct", overhead(checked), "%")
	res.set("bench.trace_overhead_pct", overhead(spanned), "%")
	p.report(log, w.name)
	fmt.Fprintf(log, "%s: %d traced rounds in %.1f s\n", w.name, len(plain), time.Since(begin).Seconds())
	if err := p.rec.write(spansOut); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "%s: %d spans -> %s\n", w.name, len(p.rec.spans), spansOut)
	return res, nil
}

// accounted checks that the span self-times cover the timed phase: the
// spans' roots (scheduling and drain) leave only the instants between
// them untimed.
func (p *probes) accounted(wallNs int64) error {
	_, self := p.rec.selfTimes()
	var sum int64
	for _, s := range self {
		sum += s
	}
	if gap := wallNs - sum; gap < 0 || float64(gap) > 0.001*float64(wallNs) {
		return fmt.Errorf("span self-times sum to %d ns of a %d ns timed phase", sum, wallNs)
	}
	return nil
}

// report prints the span table: count and total self time per kind.
func (p *probes) report(log io.Writer, name string) {
	count, self := p.rec.selfTimes()
	fmt.Fprintf(log, "%s spans (last traced round):\n", name)
	for k := spanKind(0); k < numSpanKinds; k++ {
		if count[k] > 0 {
			fmt.Fprintf(log, "  %-24s %10d spans %10.2f ms self\n", k, count[k], float64(self[k])/1e6)
		}
	}
}

// layerMetrics fills in the per-layer figures of the traced run; o is
// the untraced outcome, whose simulated statistics the traced run
// reproduced exactly.
func layerMetrics(res *result, o outcome, p *probes) {
	n := float64(o.requests)
	per := func(x int64) float64 { return float64(x) / n }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	count, self := p.rec.selfTimes()
	end := o.end

	res.set("sim.events_per_req", per(o.events), "1/req")
	res.set("sim.model_self_ms", float64(self[spanDrain])/1e6, "ms")

	res.set("host.submit_ns_per_req", float64(self[spanSubmit])/n, "ns/req")
	res.set("host.schedule_ms", float64(self[spanSchedule])/1e6, "ms")
	res.set("host.nvme_busy_frac", p.nvme.busyFrac(end), "frac")
	res.set("host.nvme_wait_us", p.nvme.meanWaitUs(), "sim_us")

	var doneSelf int64
	for k := opKind(0); k < numOps; k++ {
		name := "controller." + k.String()
		st := p.fab.ops[k]
		res.set(name+"_per_req", per(st.count), "1/req")
		res.set(name+"_issue_ns", frac(float64(self[spanIssue+spanKind(k)]), float64(count[spanIssue+spanKind(k)])), "ns")
		if k != opErase {
			res.set(name+"_sim_us_p50", percentileUs(st.lat, 50), "sim_us")
			res.set(name+"_sim_us_p99", percentileUs(st.lat, 99), "sim_us")
		}
		doneSelf += self[spanDone+spanKind(k)]
	}
	res.set("controller.done_self_ns_per_req", float64(doneSelf)/n, "ns/req")
	paths := o.paths
	if _, ok := p.fab.inner.(*controller.OmnibusFabric); !ok {
		paths[4] = p.fab.ops[opCopy].count // a bus fabric relays every copy through DRAM
	}
	for i, path := range []string{"h", "v", "split", "direct", "relayed"} {
		res.set("controller.path_"+path+"_per_req", per(paths[i]), "1/req")
	}
	res.set("controller.sysbus_busy_frac", p.soc.sysbus.busyFrac(end), "frac")
	res.set("controller.dram_busy_frac", p.soc.dram.busyFrac(end), "frac")

	res.set("bus.h_busy_frac", p.h.busyFrac(end), "frac")
	res.set("bus.v_busy_frac", p.v.busyFrac(end), "frac")
	res.set("bus.h_wait_us", p.h.meanWaitUs(), "sim_us")
	res.set("bus.v_wait_us", p.v.meanWaitUs(), "sim_us")

	res.set("flash.reads_per_req", per(o.flash[0]), "1/req")
	res.set("flash.programs_per_req", per(o.flash[1]), "1/req")
	res.set("flash.erases_per_req", per(o.flash[2]), "1/req")
	res.set("flash.die_busy_frac", p.die.busyFrac(end), "frac")
	res.set("flash.die_wait_us", p.die.meanWaitUs(), "sim_us")

	f := o.ftl
	res.set("ftl.gc_rounds", float64(f.GCRounds), "count")
	res.set("ftl.gc_copies_per_req", per(f.GCPagesCopied), "1/req")
	res.set("ftl.gc_time_frac", frac(float64(f.GCTotalTime), float64(end)), "frac")
	res.set("ftl.write_stalls_per_req", per(f.WriteStalls), "1/req")
	admit := 1.0 // no host write was turned away when none was made
	if f.HostWrites > 0 {
		admit = float64(f.HostWrites) / float64(f.HostWrites+f.WriteStalls)
	}
	res.set("ftl.write_admit_ratio", admit, "frac")
	m := o.mapSt
	res.set("ftl.map_miss_rate", m.MissRate(), "frac")
	res.set("ftl.map_fetches_per_req", per(m.Fetches), "1/req")
	res.set("ftl.map_writebacks_per_req", per(m.Writebacks), "1/req")
	res.set("ftl.map_shared_miss_frac", frac(float64(m.SharedMisses), float64(m.Misses)), "frac")

	res.set("device.requests", float64(o.completed), "count")
	res.set("device.read_p50_us", o.readP[0].Microseconds(), "sim_us")
	res.set("device.read_p99_us", o.readP[1].Microseconds(), "sim_us")
	res.set("device.write_p99_us", o.writeP.Microseconds(), "sim_us")
	res.set("device.kiops", o.kiops, "kIOPS")
	res.set("device.sim_ms", end.Milliseconds(), "sim_ms")
	res.set("device.backlog_ms", (end - o.lastArrival).Milliseconds(), "sim_ms")
}
