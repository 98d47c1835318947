package ssd

import (
	"encoding/json"
	"io"

	"repro/internal/bus"
	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// BusInfo names one bus channel of the device together with its kind
// ("h-channel" or "v-channel") — the enumeration behind the utilization
// heatmap and the per-bus summary rows.
type BusInfo struct {
	Name    string
	Kind    string
	Channel *bus.Channel
}

// Buses enumerates the device's bus channels in display order; see
// buses.
func (s *SSD) Buses() []BusInfo { return buses(s.Fabric, s.Config.Channels) }

// buses enumerates a fabric's bus channels in display order: all
// h-channels, then (on Omnibus fabrics) all v-channels. Mesh fabrics
// return nil — their links have no per-row channel notion. It is the
// one enumeration the trace tracks, the checker registrations, the
// per-bus summary rows and the Fig 3 recorders all walk, so trace track
// IDs follow this order.
func buses(fab controller.Fabric, channels int) []BusInfo {
	switch fab := fab.(type) {
	case *controller.BusFabric:
		out := make([]BusInfo, 0, channels)
		for ch := 0; ch < channels; ch++ {
			c := fab.Channel(ch)
			out = append(out, BusInfo{Name: c.Name(), Kind: trace.KindHChannel, Channel: c})
		}
		return out
	case *controller.OmnibusFabric:
		out := make([]BusInfo, 0, channels+fab.NumVChannels())
		for ch := 0; ch < channels; ch++ {
			c := fab.HChannel(ch)
			out = append(out, BusInfo{Name: c.Name(), Kind: trace.KindHChannel, Channel: c})
		}
		for i := 0; i < fab.NumVChannels(); i++ {
			c := fab.VChannel(i * fab.ColumnsPerVChannel())
			out = append(out, BusInfo{Name: c.Name(), Kind: trace.KindVChannel, Channel: c})
		}
		return out
	default:
		return nil
	}
}

// LatencySummary is the percentile digest of one latency histogram, in
// microseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

func latencySummary(h *stats.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanUs: h.Mean().Microseconds(),
		P50Us:  h.Percentile(50).Microseconds(),
		P95Us:  h.Percentile(95).Microseconds(),
		P99Us:  h.Percentile(99).Microseconds(),
		MaxUs:  h.Max().Microseconds(),
	}
}

// BusSummary is one bus's occupancy digest.
type BusSummary struct {
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	BusyFraction float64 `json:"busy_fraction"`
	BusyUs       float64 `json:"busy_us"`
}

// Summary is the compact machine-readable digest of one run, the
// -metrics-json output: throughput, latency percentiles, per-bus busy
// fractions, GC and RAS counters, and (when tracing was on) trace totals.
type Summary struct {
	Arch          string  `json:"arch"`
	SimTimeUs     float64 `json:"sim_time_us"`
	EventsFired   int64   `json:"events_fired"`
	Requests      int64   `json:"requests"`
	KIOPS         float64 `json:"kiops"`
	BandwidthMBps float64 `json:"bandwidth_mbps"`

	ReadLatency  LatencySummary `json:"read_latency"`
	WriteLatency LatencySummary `json:"write_latency"`

	Buses []BusSummary `json:"buses,omitempty"`

	GCRounds      int64 `json:"gc_rounds"`
	GCPagesCopied int64 `json:"gc_pages_copied"`
	WriteStalls   int64 `json:"write_stalls"`

	FlashReads    int64 `json:"flash_reads"`
	FlashPrograms int64 `json:"flash_programs"`
	FlashErases   int64 `json:"flash_erases"`

	RAS map[string]string `json:"ras,omitempty"`

	// Scheduler counters appear only when a non-FIFO scheduling policy
	// was configured, so default summaries stay byte-identical.
	Scheduler      string `json:"scheduler,omitempty"`
	SchedDeferred  int64  `json:"sched_deferred,omitempty"`
	SchedReordered int64  `json:"sched_reordered,omitempty"`
	SchedForced    int64  `json:"sched_forced,omitempty"`
	SchedMaxQueue  int    `json:"sched_max_queue,omitempty"`

	// Mapping counters appear only under the fmmu mapping mode, so flat
	// summaries stay byte-identical.
	Mapping        string  `json:"mapping,omitempty"`
	MapLookups     int64   `json:"map_lookups,omitempty"`
	MapHits        int64   `json:"map_hits,omitempty"`
	MapMisses      int64   `json:"map_misses,omitempty"`
	MapMissRate    float64 `json:"map_miss_rate,omitempty"`
	MapFetches     int64   `json:"map_fetches,omitempty"`
	MapWritebacks  int64   `json:"map_writebacks,omitempty"`
	MapEvictions   int64   `json:"map_evictions,omitempty"`
	MapCleanRounds int64   `json:"map_clean_rounds,omitempty"`

	TraceEvents int64   `json:"trace_events,omitempty"`
	TraceHolds  int64   `json:"trace_holds,omitempty"`
	TraceWaitUs float64 `json:"trace_wait_us,omitempty"`

	// Telemetry carries the windowed time series and per-phase latency
	// attribution when Config.Telemetry was set.
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
}

// Summarize digests the device's current state into a Summary. Call it
// after Run.
func (s *SSD) Summarize() Summary {
	m := s.Metrics()
	fs := s.FTL.Stats()
	now := s.Engine.Now()
	sum := Summary{
		Arch:          s.Arch.String(),
		SimTimeUs:     now.Microseconds(),
		EventsFired:   s.Engine.EventsFired(),
		Requests:      m.TotalRequests(),
		KIOPS:         m.KIOPS(),
		BandwidthMBps: m.BandwidthMBps(),
		ReadLatency:   latencySummary(m.Latency[stats.Read]),
		WriteLatency:  latencySummary(m.Latency[stats.Write]),
		GCRounds:      fs.GCRounds,
		GCPagesCopied: fs.GCPagesCopied,
		WriteStalls:   fs.WriteStalls,
	}
	for _, b := range s.Buses() {
		sum.Buses = append(sum.Buses, BusSummary{
			Name:         b.Name,
			Kind:         b.Kind,
			BusyFraction: b.Channel.Utilization(),
			BusyUs:       b.Channel.TotalBusy().Microseconds(),
		})
	}
	s.Grid.ForEach(func(_ controller.ChipID, c *flash.Chip) {
		r, p, e := c.Counters()
		sum.FlashReads += r
		sum.FlashPrograms += p
		sum.FlashErases += e
	})
	if ras := s.RAS(); ras != nil {
		sum.RAS = make(map[string]string)
		for _, row := range ras.Rows() {
			if row[1] != "0" && row[1] != "(empty)" {
				sum.RAS[row[0]] = row[1]
			}
		}
	}
	if s.Sched != nil {
		sum.Scheduler = s.Sched.Policy().String()
		sum.SchedDeferred, sum.SchedReordered, sum.SchedForced = s.Sched.Counts()
		sum.SchedMaxQueue = s.Sched.MaxPending()
	}
	if s.FTL.MapEnabled() {
		ms := s.FTL.MapStats()
		sum.Mapping = "fmmu"
		sum.MapLookups = ms.Lookups
		sum.MapHits = ms.Hits
		sum.MapMisses = ms.Misses
		sum.MapMissRate = ms.MissRate()
		sum.MapFetches = ms.Fetches
		sum.MapWritebacks = ms.Writebacks
		sum.MapEvictions = ms.Evictions
		sum.MapCleanRounds = ms.CleanRounds
	}
	if s.Tracer.Enabled() {
		holds, waits := s.Tracer.Holds()
		sum.TraceEvents = int64(s.Tracer.Events())
		sum.TraceHolds = holds
		sum.TraceWaitUs = waits.Microseconds()
	}
	if s.Telemetry.Enabled() {
		sum.Telemetry = s.Telemetry.Summary(now)
	}
	return sum
}

// InjectTelemetryCounters renders the telemetry series as Perfetto
// counter tracks on the trace recorder, one counter lane per series,
// so the time-resolved view appears next to the span tracks in one
// trace file. Call after Run and before ExportChrome; a no-op unless
// both tracing and telemetry are enabled.
func (s *SSD) InjectTelemetryCounters() {
	if !s.Tracer.Enabled() || !s.Telemetry.Enabled() {
		return
	}
	sum := s.Telemetry.Summary(s.Engine.Now())
	for _, sr := range sum.Series {
		s.Tracer.CounterSeries("tel:"+sr.Name, sr.Unit, s.Telemetry.Window(), sr.Values)
	}
}

// WriteSummaryJSON writes the run summary as indented JSON.
func (s *SSD) WriteSummaryJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Summarize())
}
