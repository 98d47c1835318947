// JSON export: Summary freezes a collector into plain, deterministic
// series suitable for ssd.Summarize, the array run documents, Perfetto
// counter tracks, and cmd/report.
package telemetry

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Series is one named per-window value sequence. Values[i] covers
// simulated time [i*window, (i+1)*window).
type Series struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// PhaseSummary aggregates one (kind, phase) histogram over the run.
type PhaseSummary struct {
	Kind    string  `json:"kind"`
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	MeanUs  float64 `json:"mean_us"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	MaxUs   float64 `json:"max_us"`
	TotalUs float64 `json:"total_us"`
	// Share is this phase's fraction of the kind's summed latency.
	Share float64 `json:"share"`
}

// Mark is a named instant on the run timeline.
type Mark struct {
	Name string  `json:"name"`
	AtUs float64 `json:"at_us"`
}

// Summary is the machine-readable telemetry document for one run.
type Summary struct {
	WindowUs              float64        `json:"window_us"`
	Windows               int            `json:"windows"`
	Requests              int64          `json:"requests"`
	AttributionViolations int64          `json:"attribution_violations"`
	Series                []Series       `json:"series"`
	Phases                []PhaseSummary `json:"phases,omitempty"`
	Marks                 []Mark         `json:"marks,omitempty"`
}

// SeriesByName returns the named series, or nil.
func (s *Summary) SeriesByName(name string) *Series {
	if s == nil {
		return nil
	}
	for i := range s.Series {
		if s.Series[i].Name == name {
			return &s.Series[i]
		}
	}
	return nil
}

// round6 trims float noise so exported JSON stays compact and stable.
func round6(v float64) float64 {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}

// Summary freezes the collector at end-of-run time end. Open
// intervals (an active GC round, standing tenant queues) are closed at
// max(end, last hook time). Nil-safe: returns nil when disabled.
func (c *Collector) Summary(end sim.Time) *Summary {
	if c == nil {
		return nil
	}
	if end < c.lastEvent {
		end = c.lastEvent
	}
	// Windows through the one containing end's last instant; at least one.
	windows := max(1, int((end+c.window-1)/c.window))

	winSec := c.window.Seconds()
	mean := make([]float64, windows)
	p50 := make([]float64, windows)
	p99 := make([]float64, windows)
	for w, h := range c.lat[:min(windows, len(c.lat))] {
		if h != nil {
			mean[w] = round6(h.Mean().Microseconds())
			p50[w] = round6(h.Median().Microseconds())
			p99[w] = round6(h.P99().Microseconds())
		}
	}
	// scaled exports one accumulator as round6(sum / scale / per) per
	// window; counts use 1, 1, which leaves them exact.
	scaled := func(acc *sim.UtilRecorder, scale, per float64) []float64 {
		vals := acc.Values(windows, scale)
		for w, v := range vals {
			vals[w] = round6(v / per)
		}
		return vals
	}
	sec, us := float64(sim.Second), float64(sim.Microsecond)

	// Every series in export order; seen gates the optional ones. Open
	// intervals (an active GC round, standing tenant queues) are closed
	// at end on copies, so Summary stays idempotent.
	type column struct {
		name, unit string
		seen       bool
		values     []float64
	}
	cols := []column{
		{"throughput", "kiops", true, scaled(c.completed, winSec, 1000)},
		{"bandwidth", "mbps", true, scaled(c.bytes, winSec, 1e6)},
		{"lat_mean", "us", true, mean},
		{"lat_p50", "us", true, p50},
		{"lat_p99", "us", true, p99},
		{"gc_active", "frac", c.gcSeen, scaled(c.gc.closed(end), sec, winSec)},
		{"gc_copies", "pages", c.gcSeen, scaled(c.gcCopies, 1, 1)},
		{"grant_wait", "us", c.grantSeen, scaled(c.grantWait, us, 1)},
		{"grants", "count", c.grantSeen, scaled(c.grantCount, 1, 1)},
	}
	for i, name := range c.tenants {
		cols = append(cols, column{"qdepth:" + name, "reqs", true, scaled(c.qdepth[i].closed(end), sec, winSec)})
	}
	cols = append(cols,
		column{"rebuild", "pages", c.rebuildSeen, scaled(c.rebuilt, 1, 1)},
		column{"map_hits", "count", c.mapSeen, scaled(c.mapHits, 1, 1)},
		column{"map_misses", "count", c.mapSeen, scaled(c.mapMisses, 1, 1)})
	// Event classes in sorted order so map iteration never leaks.
	classes := make([]string, 0, len(c.events))
	for class := range c.events {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		cols = append(cols, column{"event:" + class, "count", true, scaled(c.events[class], 1, 1)})
	}

	sum := &Summary{
		WindowUs:              c.window.Microseconds(),
		Windows:               windows,
		Requests:              c.requests,
		AttributionViolations: c.attViolated,
	}
	for _, col := range cols {
		if col.seen {
			sum.Series = append(sum.Series, Series{Name: col.name, Unit: col.unit, Values: col.values})
		}
	}

	for k := 0; k < 2; k++ {
		kind := stats.IOKind(k).String()
		var kindTotal sim.Time
		for p := Phase(0); p < NumPhases; p++ {
			kindTotal += c.phaseTotal[k][p]
		}
		for p := Phase(0); p < NumPhases; p++ {
			h := c.phaseHist[k][p]
			if h.Count() == 0 {
				continue
			}
			// FinishRequest adds a zero into every phase histogram, so
			// Count alone cannot gate PhaseMap: without the flag the row
			// would appear (all-zero) in flat runs and break flat-mode
			// byte-identity with pre-map-unit output. Its zero total never
			// shifts the other phases' Share values.
			if p == PhaseMap && !c.mapSeen {
				continue
			}
			share := 0.0
			if kindTotal > 0 {
				share = round6(float64(c.phaseTotal[k][p]) / float64(kindTotal))
			}
			sum.Phases = append(sum.Phases, PhaseSummary{
				Kind:    kind,
				Phase:   p.String(),
				Count:   h.Count(),
				MeanUs:  round6(h.Mean().Microseconds()),
				P50Us:   round6(h.Median().Microseconds()),
				P99Us:   round6(h.P99().Microseconds()),
				MaxUs:   round6(h.Max().Microseconds()),
				TotalUs: round6(c.phaseTotal[k][p].Microseconds()),
				Share:   share,
			})
		}
	}
	sum.Marks = append(sum.Marks, c.marks...)
	return sum
}

// String summarizes the summary for debug printing.
func (s *Summary) String() string {
	if s == nil {
		return "telemetry: disabled"
	}
	return fmt.Sprintf("telemetry: %d windows x %.0fus, %d series, %d requests, %d violations",
		s.Windows, s.WindowUs, len(s.Series), s.Requests, s.AttributionViolations)
}
