package stats

import (
	"testing"

	"repro/internal/sim"
)

func TestIOMetricsRecord(t *testing.T) {
	m := NewIOMetrics()
	m.Record(Read, 0, 10*sim.Microsecond, 4096)
	m.Record(Write, 5*sim.Microsecond, 55*sim.Microsecond, 8192)
	if m.TotalRequests() != 2 || m.Requests[Read] != 1 || m.Requests[Write] != 1 {
		t.Fatalf("request counts wrong: %+v", m.Requests)
	}
	if m.TotalBytes() != 12288 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
	if m.Latency[Read].Mean() != 10*sim.Microsecond {
		t.Fatalf("read mean = %v", m.Latency[Read].Mean())
	}
	if m.Latency[Write].Mean() != 50*sim.Microsecond {
		t.Fatalf("write mean = %v", m.Latency[Write].Mean())
	}
	if m.Span() != 55*sim.Microsecond {
		t.Fatalf("Span = %v, want 55us", m.Span())
	}
}

func TestIOMetricsKIOPS(t *testing.T) {
	m := NewIOMetrics()
	// 1000 requests over 1ms => 1,000,000 IOPS => 1000 KIOPS.
	for i := 0; i < 1000; i++ {
		at := sim.Time(i) * sim.Microsecond
		m.Record(Read, at, at+sim.Microsecond, 4096)
	}
	span := m.Span() // 1000us
	if span != 1000*sim.Microsecond {
		t.Fatalf("span = %v", span)
	}
	got := m.KIOPS()
	if got < 999 || got > 1001 {
		t.Fatalf("KIOPS = %v, want ~1000", got)
	}
}

func TestIOMetricsBandwidth(t *testing.T) {
	m := NewIOMetrics()
	// 16 MB over 16 ms => 1000 MB/s.
	for i := 0; i < 1024; i++ {
		at := sim.Time(i) * 16 * sim.Microsecond
		m.Record(Write, at, at+16*sim.Microsecond, 16384)
	}
	got := m.BandwidthMBps()
	if got < 990 || got > 1030 {
		t.Fatalf("BandwidthMBps = %v, want ~1000", got)
	}
}

func TestIOMetricsCombined(t *testing.T) {
	m := NewIOMetrics()
	m.Record(Read, 0, 10, 1)
	m.Record(Write, 0, 30, 1)
	c := m.Combined()
	if c.Count() != 2 || c.Mean() != 20 {
		t.Fatalf("combined: count=%d mean=%v", c.Count(), c.Mean())
	}
}

func TestIOMetricsInvalidCompletion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("completion before arrival did not panic")
		}
	}()
	NewIOMetrics().Record(Read, 10, 5, 1)
}

func TestIOKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("IOKind strings wrong")
	}
}

func TestImbalanceOfRows(t *testing.T) {
	balanced := [][]float64{{1}, {1}, {1}, {1}}
	if got := ImbalanceOfRows(balanced); got != 1.0 {
		t.Fatalf("balanced imbalance = %v, want 1.0", got)
	}

	skewed := [][]float64{{1}, {0}, {0}, {0}} // only one channel busy
	if got := ImbalanceOfRows(skewed); got != 4.0 {
		t.Fatalf("skewed imbalance = %v, want 4.0 (max/mean with 1-of-4 busy)", got)
	}

	for _, empty := range [][][]float64{nil, {{}, {}}, {{0, 0}, {0, 0}}} {
		if got := ImbalanceOfRows(empty); got != 1.0 {
			t.Fatalf("empty imbalance %v = %v, want 1.0", empty, got)
		}
	}

	// Busy-weighting: a near-idle window barely moves the index.
	sparse := [][]float64{{1, 0.01}, {1, 0}}
	if got := ImbalanceOfRows(sparse); got <= 1.0 || got > 1.01 {
		t.Fatalf("sparse imbalance = %v, want just above 1", got)
	}
}
