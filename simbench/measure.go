package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/ssd"
)

// inputsPerRun is how many request streams one untraced run cycles
// through. Five lets the median over inputs shed the minority GC regime
// (README.md) unless three of the five fall into it.
const inputsPerRun = 5

// subSeed is the workload seed of input i of a run: each run draws its
// inputs from seeds of its own, so a run rests on several inputs.
func subSeed(seed int64, i int) int64 { return seed*16 + int64(i) }

// setupSamples is how many set-ups a run times before simulating; the
// devices built for them are discarded.
const setupSamples = 40

// measure is the untraced mode: it simulates the workload's inputs
// round after round until the time budget is spent (at least one
// round), each on a freshly built device, and reports the end-to-end
// metrics. Each figure is a median: over rounds within an input, which
// sheds a round slowed by a neighbour on the machine, then over inputs,
// which sheds an input that fell into a rare regime.
func measure(w spec, seed int64, budget time.Duration, log io.Writer) (result, error) {
	var res result
	rates := make([][]float64, inputsPerRun)
	rss := make([][]float64, inputsPerRun)
	alloc := make([]float64, inputsPerRun)
	var setups []float64
	build := func(cfg ssd.Config) *ssd.SSD { return ssd.New(w.arch, cfg) }
	// Set-up takes milliseconds, so it is sampled apart from the
	// simulations, all samples under one condition: after a collection,
	// on a heap that keeps its pages.
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		st, err := w.prepare(subSeed(seed, i%inputsPerRun), build)
		if err != nil {
			return res, err
		}
		setups = append(setups, st.total().Seconds())
	}
	begin := time.Now()
	rounds := 0
	for ; rounds == 0 || time.Since(begin) < budget; rounds++ {
		for i := 0; i < inputsPerRun; i++ {
			settle()
			sampler, err := startRSSSampler()
			if err != nil {
				return res, err
			}
			o, _, err := w.simulate(subSeed(seed, i), nil)
			peak := sampler.stop()
			if err != nil {
				return res, err
			}
			rss[i] = append(rss[i], float64(peak)/(1<<20))
			res.tally(o)
			if o.err != nil {
				fmt.Fprintf(log, "%s input %d: %v\n", w.name, i, o.err)
			}
			rates[i] = append(rates[i], float64(o.requests)/(float64(o.wallNs)/1e9))
			if rounds == 0 {
				alloc[i] = float64(o.allocBytes) / 1024 / float64(o.requests)
				fmt.Fprintf(log, "%s seed %d: %d requests, %.3f s, %s\n",
					w.name, subSeed(seed, i), o.requests, float64(o.wallNs)/1e9, o.regimeLine())
			}
		}
	}
	perInput := make([]float64, inputsPerRun)
	peaks := make([]float64, inputsPerRun)
	for i, r := range rates {
		perInput[i] = median(r)
		peaks[i] = median(rss[i])
		fmt.Fprintf(log, "%s input %d: req/s by round %.0f, peak RSS MB %.1f\n", w.name, i, r, rss[i])
	}
	res.Correct = res.Failed == 0
	res.set("sim_req_per_s", median(perInput), "req/s")
	res.set("host_alloc_kb_per_req", median(alloc), "KB/req")
	res.set("peak_rss_mb", median(peaks), "MB")
	res.set("setup_s", median(setups), "s")
	fmt.Fprintf(log, "%s: %d rounds of %d inputs in %.1f s\n", w.name, rounds, inputsPerRun, time.Since(begin).Seconds())
	return res, nil
}

// heapAllocs returns the bytes the Go heap has allocated since the
// process started.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rssSampler polls the process's resident set size every millisecond
// from its own goroutine and keeps the highest reading. It reads through
// one open file into a fixed buffer, so it allocates nothing while the
// simulation it watches is timed.
type rssSampler struct {
	f    *os.File
	quit chan struct{}
	done chan struct{}
	peak int64
}

// startRSSSampler takes a first reading and starts polling.
func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("rss sampler: %w", err)
	}
	s := &rssSampler{f: f, quit: make(chan struct{}), done: make(chan struct{})}
	buf := make([]byte, 128)
	if err := s.read(buf); err != nil {
		f.Close()
		return nil, err
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				_ = s.read(buf) // a failed poll only leaves the peak unchanged
			}
		}
	}()
	return s, nil
}

// read takes one reading: statm's second field is resident pages.
func (s *rssSampler) read(buf []byte) error {
	n, err := s.f.ReadAt(buf, 0)
	if n == 0 {
		return fmt.Errorf("rss sampler: read statm: %v", err)
	}
	var pages int64
	field := 0
	for _, c := range buf[:n] {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + int64(c-'0')
		}
	}
	if rss := pages * int64(os.Getpagesize()); rss > s.peak {
		s.peak = rss
	}
	return nil
}

// stop ends the polling, waits for the goroutine and returns the peak
// resident set size in bytes.
func (s *rssSampler) stop() int64 {
	close(s.quit)
	<-s.done
	s.f.Close()
	return s.peak
}
