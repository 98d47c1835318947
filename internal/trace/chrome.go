package trace

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/sim"
)

// Chrome trace-event phase codes (the "ph" field).
const (
	phComplete   = "X" // resource hold: ts + dur on a track
	phAsyncBegin = "b" // logical span open (request, GC round, grant wait)
	phAsyncEnd   = "e" // logical span close
	phInstant    = "i" // point event (routing decision, fault)
	phCounter    = "C" // counter sample (telemetry series)
)

// event is one recorded trace event, held in simulator units and
// converted to Chrome's microsecond timebase only at export.
type event struct {
	Name string
	Cat  string
	Ph   string
	Ts   sim.Time
	Dur  sim.Time
	Tid  int
	ID   uint64
	Args []KV
}

// chromeEvent is the JSON wire form of one trace event.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  *float64               `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	ID   string                 `json:"id,omitempty"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// chromePid is the single process id all tracks live under.
const chromePid = 1

// usec converts a simulation time to Chrome's microsecond float timebase.
func usec(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// ExportChrome writes the recorded trace as Chrome trace-event JSON
// (the {"traceEvents": [...]} object form), loadable in Perfetto and
// chrome://tracing. Metadata naming every registered track is emitted
// first, so idle h-channels, v-channels, and chips still appear as
// (empty) tracks. Logical async spans ("b"/"e") live on tid 0.
func (r *Recorder) ExportChrome(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`+"\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if _, err := io.WriteString(bw, ","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ce) // Encode appends the row's newline
	}

	// Track metadata: process name, then one thread per track with a
	// sort index preserving registration order.
	if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: chromePid,
		Args: map[string]interface{}{"name": "pssdsim"}}); err != nil {
		return err
	}
	for _, name := range r.order {
		t := r.tracks[name]
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: chromePid, Tid: t.id,
			Args: map[string]interface{}{"name": t.Kind + " " + t.Name}}); err != nil {
			return err
		}
		if err := emit(chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: chromePid, Tid: t.id,
			Args: map[string]interface{}{"sort_index": t.id}}); err != nil {
			return err
		}
	}

	for i := range r.events {
		ev := &r.events[i]
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   ev.Ph,
			Ts:   usec(ev.Ts),
			Pid:  chromePid,
			Tid:  ev.Tid,
		}
		switch ev.Ph {
		case phComplete:
			d := usec(ev.Dur)
			ce.Dur = &d
		case phAsyncBegin, phAsyncEnd:
			ce.ID = formatID(ev.ID)
		case phInstant:
			ce.S = "t" // thread-scoped instant
		}
		if len(ev.Args) > 0 {
			args := make(map[string]interface{}, len(ev.Args))
			for _, kv := range ev.Args {
				args[kv.K] = kv.V
			}
			ce.Args = args
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// CounterSeries appends one Perfetto counter track: a "C"-phase sample
// per window, named name, with the value keyed by unit in the args.
// Sample i sits at the start of window i. Perfetto groups counter
// events by (pid, name), so every series becomes its own counter lane
// under the process, alongside the span tracks. Nil-safe.
func (r *Recorder) CounterSeries(name, unit string, window sim.Time, values []float64) {
	if r == nil {
		return
	}
	for i, v := range values {
		r.events = append(r.events, event{
			Name: name,
			Cat:  "telemetry",
			Ph:   phCounter,
			Ts:   window * sim.Time(i),
			Args: []KV{{K: unit, V: v}},
		})
	}
}

// formatID renders an async span id as the hex string Chrome expects.
func formatID(id uint64) string {
	const digits = "0123456789abcdef"
	if id == 0 {
		return "0x0"
	}
	var buf [18]byte
	i := len(buf)
	for id > 0 {
		i--
		buf[i] = digits[id&0xf]
		id >>= 4
	}
	i -= 2
	buf[i], buf[i+1] = '0', 'x'
	return string(buf[i:])
}
