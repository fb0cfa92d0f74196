// Package trace is the cluster's observability layer. It records the
// lifecycle of requests moving through a Nexus deployment as span-structured
// events — frontend arrival, route decision, enqueue after the network hop,
// batch execution on the GPU, and completion or drop — and the control
// plane's per-epoch decisions as an audit log (squishy-bin-packing
// placements, query latency splits, early-drop window culls).
//
// Traces answer the questions the paper's design motivates: which duty
// cycle a session landed in (§6.1), how a complex query's SLO budget was
// split (§6.2), and which window early-drop culled (§4.3). Exporters
// include JSON (millisecond timestamps), Chrome trace-event format
// (chrome://tracing-loadable, see chrome.go), and per-stage latency
// breakdowns (analyze.go) consumed by the nexus-trace CLI.
//
// Tracing is allocation-conscious: events go into a fixed-capacity ring
// buffer, and a nil *Tracer is a valid no-op so the data plane never
// branches on configuration.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Kind classifies an event.
type Kind string

// Event kinds, in lifecycle order.
const (
	Arrive   Kind = "arrive"   // request entered the frontend
	Route    Kind = "route"    // frontend picked a backend/unit (smooth WRR)
	Enqueue  Kind = "enqueue"  // entered the unit's queue after the network hop
	Execute  Kind = "execute"  // included in a batch submitted to the GPU
	Complete Kind = "complete" // response delivered
	Drop     Kind = "drop"     // dropped (admission control, reconfig, failure, ...)
)

// Event is one lifecycle record. The Dur field carries the span the event
// closes, by kind: Enqueue — time since frontend arrival (dispatch + network
// hop); Execute — the batch's planned GPU latency (utilization timelines);
// Complete and Drop — total time in system. Inc tags Execute events with the
// backend's incarnation so events from before a crash do not attribute to
// the restarted node.
type Event struct {
	At      time.Duration
	Kind    Kind
	ReqID   uint64
	Session string
	Backend string
	Unit    string
	Batch   int
	Dur     time.Duration
	Inc     uint64
	Cause   string // drop cause, matching the backend outcome taxonomy
	Detail  string
}

// eventJSON is the wire form: timestamps and durations in milliseconds with
// explicit units (raw nanosecond integers are unreadable in dumps), and
// batch without omitempty — a legitimate batch-size-0 record must stay
// distinguishable from an unset field.
type eventJSON struct {
	AtMS    float64 `json:"at_ms"`
	Kind    Kind    `json:"kind"`
	ReqID   uint64  `json:"req"`
	Session string  `json:"session,omitempty"`
	Backend string  `json:"backend,omitempty"`
	Unit    string  `json:"unit,omitempty"`
	Batch   int     `json:"batch"`
	DurMS   float64 `json:"dur_ms"`
	Inc     uint64  `json:"inc,omitempty"`
	Cause   string  `json:"cause,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// MS converts a duration to milliseconds for export.
func MS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// FromMS converts exported milliseconds back to a duration, rounding to the
// nearest nanosecond so a marshal/unmarshal round trip is exact.
func FromMS(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// MarshalJSON implements json.Marshaler using the millisecond wire schema.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		AtMS: MS(e.At), Kind: e.Kind, ReqID: e.ReqID, Session: e.Session,
		Backend: e.Backend, Unit: e.Unit, Batch: e.Batch, DurMS: MS(e.Dur),
		Inc: e.Inc, Cause: e.Cause, Detail: e.Detail,
	})
}

// UnmarshalJSON implements json.Unmarshaler for the millisecond wire schema.
func (e *Event) UnmarshalJSON(data []byte) error {
	var w eventJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*e = Event{
		At: FromMS(w.AtMS), Kind: w.Kind, ReqID: w.ReqID, Session: w.Session,
		Backend: w.Backend, Unit: w.Unit, Batch: w.Batch, Dur: FromMS(w.DurMS),
		Inc: w.Inc, Cause: w.Cause, Detail: w.Detail,
	}
	return nil
}

// Tracer is a bounded in-memory event recorder. A nil Tracer discards
// events. Tracer is not safe for concurrent use; the simulation is
// single-threaded by design.
//
// The ring has one slot more than the capacity. The slot at next never
// holds a retained event: Record writes there first and runs the filter on
// the written slot, so an event is copied once, and a rejected event
// evicts nothing.
type Tracer struct {
	events []Event
	next   int
	total  uint64
	filter func(*Event) bool
}

// New creates a tracer holding up to capacity events (older events are
// overwritten). Capacity below 1 panics.
func New(capacity int) *Tracer {
	if capacity < 1 {
		panic("trace: capacity must be >= 1")
	}
	return &Tracer{events: make([]Event, capacity+1)}
}

// SetFilter installs a predicate; events failing it are discarded. The
// predicate must not retain its argument. A nil predicate accepts
// everything.
func (t *Tracer) SetFilter(f func(*Event) bool) {
	if t == nil {
		return
	}
	t.filter = f
}

// Record appends a copy of *e (no-op on a nil tracer); e is not retained.
// Filtered events advance neither the write cursor nor the total, so a
// filter cannot evict retained events. Callers on hot paths check for a
// nil tracer before building the event.
func (t *Tracer) Record(e *Event) {
	if t == nil {
		return
	}
	s := &t.events[t.next]
	*s = *e
	if t.filter != nil && !t.filter(s) {
		return
	}
	t.total++
	if t.next++; t.next == len(t.events) {
		t.next = 0
	}
}

// Total returns how many events were recorded (including overwritten ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Len returns how many events the ring retains, without copying them.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(min(t.total, uint64(len(t.events)-1)))
}

// segments returns the retained events as the ring's two runs, older run
// first, so readers walk the ring in place in record order. A nil tracer
// has no runs.
func (t *Tracer) segments() [2][]Event {
	n := t.Len()
	if n == 0 {
		return [2][]Event{}
	}
	if start := t.next - n; start >= 0 {
		return [2][]Event{t.events[start:t.next], nil}
	}
	return [2][]Event{t.events[len(t.events)+t.next-n:], t.events[:t.next]}
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	segs := t.segments()
	out := make([]Event, 0, len(segs[0])+len(segs[1]))
	out = append(out, segs[0]...)
	return append(out, segs[1]...)
}

// Window returns the retained events with from <= At <= to, in record
// order, in an exactly sized slice (nil when none match). It reads the
// ring in place: one pass counts the matches, a second copies them. The
// scan is linear because nothing orders the ring by At — callers may
// stamp events out of order.
func (t *Tracer) Window(from, to time.Duration) []Event {
	segs := t.segments()
	n := 0
	for _, seg := range segs {
		for i := range seg {
			if at := seg[i].At; at >= from && at <= to {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for _, seg := range segs {
		for i := range seg {
			if at := seg[i].At; at >= from && at <= to {
				out = append(out, seg[i])
			}
		}
	}
	return out
}

// ByRequest groups retained events per request ID, each group in order.
func (t *Tracer) ByRequest() map[uint64][]Event {
	out := make(map[uint64][]Event)
	for _, seg := range t.segments() {
		for i := range seg {
			out[seg[i].ReqID] = append(out[seg[i].ReqID], seg[i])
		}
	}
	return out
}

// RequestLatency reconstructs, for every completed request retained in the
// buffer, the arrival-to-completion latency.
func (t *Tracer) RequestLatency() map[uint64]time.Duration {
	out := make(map[uint64]time.Duration)
	arrivals := make(map[uint64]time.Duration)
	for _, seg := range t.segments() {
		for i := range seg {
			e := &seg[i]
			switch e.Kind {
			case Arrive:
				arrivals[e.ReqID] = e.At
			case Complete:
				if at, ok := arrivals[e.ReqID]; ok {
					out[e.ReqID] = e.At - at
				}
			}
		}
	}
	return out
}

// WriteJSON streams retained events as a JSON array in the millisecond
// wire schema.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.Events())
}

// ReadJSON parses a JSON event array previously produced by WriteJSON.
// Empty and truncated inputs are reported as such — they usually mean a
// run crashed mid-write or the wrong file was passed, and "unexpected EOF"
// alone sends people debugging the wrong layer.
func ReadJSON(r io.Reader) ([]Event, error) {
	var out []Event
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		switch {
		case errors.Is(err, io.EOF):
			return nil, fmt.Errorf("trace: empty input: no JSON event array found")
		case errors.Is(err, io.ErrUnexpectedEOF):
			return nil, fmt.Errorf("trace: truncated input: event array ends mid-document (incomplete write?): %w", err)
		}
		return nil, fmt.Errorf("trace: parsing event JSON: %w", err)
	}
	return out, nil
}

// WriteText renders retained events human-readably, one per line.
func (t *Tracer) WriteText(w io.Writer) error {
	for _, seg := range t.segments() {
		for i := range seg {
			if err := writeEventText(w, &seg[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeEventText(w io.Writer, e *Event) error {
	var err error
	switch e.Kind {
	case Execute:
		_, err = fmt.Fprintf(w, "%-14v %-9s req=%-8d %s unit=%s batch=%d inc=%d\n",
			e.At, e.Kind, e.ReqID, e.Backend, e.Unit, e.Batch, e.Inc)
	case Drop:
		_, err = fmt.Fprintf(w, "%-14v %-9s req=%-8d %s cause=%s %s\n",
			e.At, e.Kind, e.ReqID, e.Session, e.Cause, e.Detail)
	default:
		_, err = fmt.Fprintf(w, "%-14v %-9s req=%-8d %s %s\n",
			e.At, e.Kind, e.ReqID, e.Session, e.Backend)
	}
	return err
}

// Summary aggregates retained events by kind.
func (t *Tracer) Summary() map[Kind]int {
	out := make(map[Kind]int)
	for _, seg := range t.segments() {
		for i := range seg {
			out[seg[i].Kind]++
		}
	}
	return out
}

// Sessions lists the distinct sessions seen in retained events, sorted.
func (t *Tracer) Sessions() []string {
	set := make(map[string]bool)
	for _, seg := range t.segments() {
		for i := range seg {
			if s := seg[i].Session; s != "" {
				set[s] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
