package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"time"
)

// keySet is one instrument kind's part of a key table: the canonical keys
// in sorted order, a key→index map, and each metric family's index range.
type keySet struct {
	keys  []string
	index map[string]int
	fams  map[string]span
}

// span is a family's index range [lo, hi) in a keySet. A longer family
// name sharing the prefix (say "m_x" inside "m") can sort between two keys
// of the family, so readers skip members that fail inFamily.
type span struct{ lo, hi int }

// newKeySet indexes sorted keys.
func newKeySet(keys []string) keySet {
	ks := keySet{keys: keys, index: make(map[string]int, len(keys)), fams: make(map[string]span)}
	for i, k := range keys {
		ks.index[k] = i
		f := Family(k)
		sp, ok := ks.fams[f]
		if !ok {
			sp.lo = i
		}
		sp.hi = i + 1
		ks.fams[f] = sp
	}
	return ks
}

// inFamily reports whether key i, taken from fam's span, belongs to fam.
func (ks *keySet) inFamily(i int, fam string) bool {
	k := ks.keys[i]
	return len(k) == len(fam) || k[len(fam)] == '{'
}

// keyTable is the shared, immutable key layout of a run of snapshots: a
// Registry builds one per registration burst and every snapshot sampled
// until the next registration refers to it.
type keyTable struct {
	counters, gauges, windows keySet
}

var emptyTable keyTable

// Snapshot is one sampled state of the registry: value slices laid out by
// a key table it shares with the snapshots sampled around it. Lookups by
// key are index lookups, and the JSON form lists each kind's keys sorted,
// so encoded snapshots are deterministic.
type Snapshot struct {
	At   time.Duration
	AtMS float64

	tab      *keyTable
	counters []float64
	gauges   []float64
	windows  []WindowStats
}

// NewSnapshot builds a snapshot from value maps, for readers and tests; a
// Registry samples into its shared table instead.
func NewSnapshot(at time.Duration, counters, gauges map[string]float64, windows map[string]WindowStats) Snapshot {
	s := Snapshot{At: at, AtMS: MS(at), tab: &keyTable{}}
	s.tab.counters, s.counters = sortedValues(counters)
	s.tab.gauges, s.gauges = sortedValues(gauges)
	s.tab.windows, s.windows = sortedValues(windows)
	return s
}

// sortedValues lays a map's values out in key order over a new keySet.
func sortedValues[V any](m map[string]V) (keySet, []V) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]V, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return newKeySet(keys), vals
}

func (s *Snapshot) table() *keyTable {
	if s.tab == nil {
		return &emptyTable
	}
	return s.tab
}

// Counter returns a counter's value in the snapshot.
func (s *Snapshot) Counter(key string) (float64, bool) {
	if i, ok := s.table().counters.index[key]; ok {
		return s.counters[i], true
	}
	return 0, false
}

// Gauge returns a gauge's value in the snapshot.
func (s *Snapshot) Gauge(key string) (float64, bool) {
	if i, ok := s.table().gauges.index[key]; ok {
		return s.gauges[i], true
	}
	return 0, false
}

// Window returns a window's summary in the snapshot.
func (s *Snapshot) Window(key string) (WindowStats, bool) {
	if i, ok := s.table().windows.index[key]; ok {
		return s.windows[i], true
	}
	return WindowStats{}, false
}

// Keys returns the snapshot's keys of one metric family, sorted. It scans
// counters, gauges, and windows.
func (s *Snapshot) Keys(family string) []string {
	var out []string
	tab := s.table()
	for _, ks := range []*keySet{&tab.counters, &tab.gauges, &tab.windows} {
		sp := ks.fams[family]
		for i := sp.lo; i < sp.hi; i++ {
			if ks.inFamily(i, family) {
				out = append(out, ks.keys[i])
			}
		}
	}
	sort.Strings(out)
	return out
}

// slot names one key of a reference snapshot's table for reads across a
// history: snapshots sharing the table read index i, the others look the
// key up. A nil tab (the key is not in the reference) always looks up.
type slot struct {
	tab *keyTable
	i   int
	key string
}

func (s *Snapshot) counterAt(k slot) (float64, bool) {
	if k.tab != nil && s.tab == k.tab {
		return s.counters[k.i], true
	}
	return s.Counter(k.key)
}

func (s *Snapshot) gaugeAt(k slot) (float64, bool) {
	if k.tab != nil && s.tab == k.tab {
		return s.gauges[k.i], true
	}
	return s.Gauge(k.key)
}

// snapshotJSON is the map-shaped wire form the reader decodes.
type snapshotJSON struct {
	AtMS     float64                `json:"at_ms"`
	Counters map[string]float64     `json:"counters,omitempty"`
	Gauges   map[string]float64     `json:"gauges,omitempty"`
	Windows  map[string]WindowStats `json:"windows,omitempty"`
}

// MarshalJSON writes the snapshot as encoding/json writes snapshotJSON:
// keys sorted, empty kinds omitted, floats in encoding/json's format.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return s.appendJSON(make([]byte, 0, 64+32*(len(s.counters)+len(s.gauges))+128*len(s.windows)))
}

// UnmarshalJSON reads the wire form into a snapshot with its own table.
// At is left zero; the stream readers derive it from at_ms.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var w snapshotJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = NewSnapshot(0, w.Counters, w.Gauges, w.Windows)
	s.AtMS = w.AtMS
	return nil
}

func (s *Snapshot) appendJSON(b []byte) ([]byte, error) {
	var err error
	tab := s.table()
	b = append(b, `{"at_ms":`...)
	if b, err = appendFloat(b, s.AtMS); err != nil {
		return nil, err
	}
	if len(s.counters) > 0 {
		if b, err = appendValues(b, `,"counters":{`, tab.counters.keys, s.counters); err != nil {
			return nil, err
		}
	}
	if len(s.gauges) > 0 {
		if b, err = appendValues(b, `,"gauges":{`, tab.gauges.keys, s.gauges); err != nil {
			return nil, err
		}
	}
	if len(s.windows) > 0 {
		b = append(b, `,"windows":{`...)
		for i, ws := range s.windows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendKey(b, tab.windows.keys[i])
			b = append(b, `:{"count":`...)
			b = strconv.AppendUint(b, ws.Count, 10)
			for f, v := range [...]float64{ws.MeanMS, ws.P50MS, ws.P99MS, ws.MaxMS} {
				b = append(b, windowFields[f]...)
				if b, err = appendFloat(b, v); err != nil {
					return nil, err
				}
			}
			if ws.ExemplarID != 0 {
				b = append(b, `,"exemplar_req":`...)
				b = strconv.AppendUint(b, ws.ExemplarID, 10)
			}
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// windowFields are WindowStats' float fields in struct order.
var windowFields = [...]string{`,"mean_ms":`, `,"p50_ms":`, `,"p99_ms":`, `,"max_ms":`}

func appendValues(b []byte, open string, keys []string, vals []float64) ([]byte, error) {
	var err error
	b = append(b, open...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendKey(b, keys[i])
		b = append(b, ':')
		if b, err = appendFloat(b, v); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendKey appends key as a JSON string the way encoding/json writes map
// keys (HTML-escaped). Canonical keys are printable ASCII with quoted
// label values, so the fast path only escapes '"' and '\'.
func appendKey(b []byte, key string) []byte {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c < 0x20 || c > 0x7e || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(key) // marshaling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	for i := 0; i < len(key); i++ {
		if c := key[i]; c == '"' || c == '\\' {
			b = append(b, '\\')
		}
		b = append(b, key[i])
	}
	return append(b, '"')
}

// appendFloat appends f exactly as encoding/json encodes a float64, and
// rejects NaN and infinities as it does.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
