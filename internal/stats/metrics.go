package stats

import (
	"fmt"

	"repro/internal/sim"
)

// IOKind distinguishes read and write I/O in per-kind metrics.
type IOKind int

// I/O kinds.
const (
	Read IOKind = iota
	Write
)

// String returns "read" or "write".
func (k IOKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// IOMetrics aggregates per-request latency and volume for one simulation
// run, split by read/write.
type IOMetrics struct {
	Latency      [2]*Histogram
	Bytes        [2]int64
	Requests     [2]int64
	FirstArrival sim.Time
	LastComplete sim.Time
	haveFirst    bool
}

// NewIOMetrics returns empty metrics.
func NewIOMetrics() *IOMetrics {
	return &IOMetrics{
		Latency: [2]*Histogram{NewLatencyHistogram(), NewLatencyHistogram()},
	}
}

// Record logs one completed request.
func (m *IOMetrics) Record(kind IOKind, arrival, complete sim.Time, bytes int64) {
	if complete < arrival {
		panic("stats: completion precedes arrival")
	}
	m.Latency[kind].Add(complete - arrival)
	m.Bytes[kind] += bytes
	m.Requests[kind]++
	if !m.haveFirst || arrival < m.FirstArrival {
		m.FirstArrival = arrival
		m.haveFirst = true
	}
	if complete > m.LastComplete {
		m.LastComplete = complete
	}
}

// TotalRequests returns the request count across kinds.
func (m *IOMetrics) TotalRequests() int64 { return m.Requests[Read] + m.Requests[Write] }

// TotalBytes returns the byte volume across kinds.
func (m *IOMetrics) TotalBytes() int64 { return m.Bytes[Read] + m.Bytes[Write] }

// Combined returns a histogram merging read and write latencies.
func (m *IOMetrics) Combined() *Histogram {
	h := NewLatencyHistogram()
	h.Merge(m.Latency[Read])
	h.Merge(m.Latency[Write])
	return h
}

// MeanLatency returns the mean latency across all requests, the paper's
// primary "average I/O latency" metric.
func (m *IOMetrics) MeanLatency() sim.Time { return m.Combined().Mean() }

// Span returns the wall-clock interval covered, from first arrival to last
// completion.
func (m *IOMetrics) Span() sim.Time {
	if !m.haveFirst {
		return 0
	}
	return m.LastComplete - m.FirstArrival
}

// KIOPS returns completed requests per wall-clock millisecond, i.e.
// thousands of I/O operations per second — the Fig 15 metric.
func (m *IOMetrics) KIOPS() float64 {
	span := m.Span()
	if span <= 0 {
		return 0
	}
	return float64(m.TotalRequests()) / span.Seconds() / 1000
}

// BandwidthMBps returns achieved bandwidth in MB/s.
func (m *IOMetrics) BandwidthMBps() float64 {
	span := m.Span()
	if span <= 0 {
		return 0
	}
	return float64(m.TotalBytes()) / span.Seconds() / 1e6
}

// String summarizes the run.
func (m *IOMetrics) String() string {
	return fmt.Sprintf("reqs=%d (r=%d w=%d) mean=%v p99=%v kiops=%.1f",
		m.TotalRequests(), m.Requests[Read], m.Requests[Write],
		m.MeanLatency(), m.Combined().P99(), m.KIOPS())
}

// ImbalanceOfRows computes a busy-weighted imbalance index over a
// [channel][window] utilization matrix: the sum over windows of the
// busiest channel's utilization divided by the sum of the mean
// utilization. Busy-weighting keeps sparse near-idle windows (one brief
// transfer somewhere) from dominating the index the way a per-window
// average of max/mean would.
func ImbalanceOfRows(rows [][]float64) float64 {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return 1
	}
	var maxSum, meanSum float64
	for w := 0; w < len(rows[0]); w++ {
		var sum, max float64
		for c := range rows {
			v := rows[c][w]
			sum += v
			if v > max {
				max = v
			}
		}
		maxSum += max
		meanSum += sum / float64(len(rows))
	}
	if meanSum == 0 {
		return 1
	}
	return maxSum / meanSum
}
