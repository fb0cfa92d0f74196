package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// StageBlame decomposes one request's (or a cohort's mean) end-to-end
// latency into the stages the critical path can hide in:
//
//	Admission     — frontend arrival until a backend was picked (admission
//	                control, routing-table waits)
//	Dispatch      — route decision until the request entered its unit's
//	                queue (network delay + retries)
//	Stall         — batch-formation wait: the request sat queued while its
//	                batch was still filling (until the last member arrived)
//	Queue         — the formed batch waiting for the GPU
//	GPU           — batch submission until completion (execute + reply hop),
//	                split into Service and Interference
//	Interference  — the fraction of GPU time during which another unit on
//	                the same backend was also executing (spatial
//	                co-residency contention; zero under temporal sharing)
//	Service       — GPU minus Interference
//
// The stages reconcile exactly: Admission + Dispatch + Stall + Queue + GPU
// == Total, and Service + Interference == GPU.
type StageBlame struct {
	Admission    time.Duration
	Dispatch     time.Duration
	Stall        time.Duration
	Queue        time.Duration
	GPU          time.Duration
	Service      time.Duration
	Interference time.Duration
	Total        time.Duration
}

// add accumulates another decomposition (for cohort means).
func (b *StageBlame) add(o StageBlame) {
	b.Admission += o.Admission
	b.Dispatch += o.Dispatch
	b.Stall += o.Stall
	b.Queue += o.Queue
	b.GPU += o.GPU
	b.Service += o.Service
	b.Interference += o.Interference
	b.Total += o.Total
}

// scale divides every stage by n (for cohort means).
func (b *StageBlame) scale(n int) {
	if n <= 0 {
		return
	}
	d := time.Duration(n)
	b.Admission /= d
	b.Dispatch /= d
	b.Stall /= d
	b.Queue /= d
	b.GPU /= d
	b.Service /= d
	b.Interference /= d
	b.Total /= d
}

// RequestBlame is one completed request's latency decomposition.
type RequestBlame struct {
	ReqID   uint64
	Session string
	StageBlame
}

// SessionBlame aggregates request decompositions per session: the mean over
// all completed requests, and the mean over the p99 tail cohort (requests
// whose total latency is at or above the session's p99) — where the SLO
// budget actually went for the requests that blew it. Exemplar is the
// request ID of the worst-latency request, so a hot histogram cell links to
// a concrete trace.
type SessionBlame struct {
	Session   string
	Count     int           // completed requests with a full span
	TailCount int           // requests in the p99 cohort
	P99       time.Duration // p99 total latency
	Exemplar  uint64        // request ID of the max-latency request
	Mean      StageBlame    // mean decomposition over all requests
	Tail      StageBlame    // mean decomposition over the p99 cohort
}

// blameSpan accumulates one request's events until its Complete arrives.
type blameSpan struct {
	session                          string
	arrive, route, enqueue, execute  time.Duration
	hasRoute, hasEnqueue, hasExecute bool
	backend, unit                    string
	batchDur                         time.Duration
	inc                              uint64
}

type blameUnitKey struct{ backend, unit string }

type blameBatchKey struct {
	blameUnitKey
	at  time.Duration
	inc uint64
}

// execInterval is one batch's GPU occupancy window on a backend.
type execInterval struct {
	unit       string
	start, end time.Duration
}

// AttributeBlame reconstructs a latency decomposition for every completed
// request whose full span (Arrive, Enqueue, Execute, Complete) is retained
// in the event stream. Requests with partial spans (ring eviction, drops)
// are skipped — blaming a half-seen request would misattribute the missing
// stages to whichever ones happened to survive.
func AttributeBlame(events []Event) []RequestBlame {
	spans := make(map[uint64]*blameSpan)
	// batchClose is the latest member-enqueue time per batch: the moment the
	// batch stopped filling. Everything a request waits between its own
	// enqueue and that close is batch-formation stall, not GPU queueing.
	batchClose := map[blameBatchKey]time.Duration{}
	seenBatch := map[blameBatchKey]bool{}
	// byBackend indexes batch execute intervals for the co-residency
	// interference overlap computed after the main pass.
	byBackend := map[string][]execInterval{}
	// pending keeps per-request exec intervals until interference resolves.
	type pendingBlame struct {
		RequestBlame
		backend, unit   string
		execAt, execEnd time.Duration
	}
	var out []pendingBlame

	for _, e := range events {
		switch e.Kind {
		case Arrive:
			spans[e.ReqID] = &blameSpan{session: e.Session, arrive: e.At}
		case Route:
			if s, ok := spans[e.ReqID]; ok && !s.hasRoute {
				s.route, s.hasRoute = e.At, true
			}
		case Enqueue:
			if s, ok := spans[e.ReqID]; ok {
				s.enqueue, s.hasEnqueue = e.At, true
			}
		case Execute:
			s, ok := spans[e.ReqID]
			if !ok {
				continue
			}
			s.execute, s.hasExecute = e.At, true
			s.backend, s.unit, s.batchDur, s.inc = e.Backend, e.Unit, e.Dur, e.Inc
			bk := blameBatchKey{blameUnitKey{e.Backend, e.Unit}, e.At, e.Inc}
			if s.hasEnqueue && s.enqueue > batchClose[bk] {
				batchClose[bk] = s.enqueue
			}
			if !seenBatch[bk] {
				seenBatch[bk] = true
				byBackend[e.Backend] = append(byBackend[e.Backend],
					execInterval{unit: e.Unit, start: e.At, end: e.At + e.Dur})
			}
		case Complete:
			s, ok := spans[e.ReqID]
			if !ok {
				continue
			}
			delete(spans, e.ReqID)
			if !s.hasEnqueue || !s.hasExecute {
				continue
			}
			b := pendingBlame{
				RequestBlame: RequestBlame{ReqID: e.ReqID, Session: s.session},
				backend:      s.backend,
				unit:         s.unit,
				execAt:       s.execute,
				execEnd:      s.execute + s.batchDur,
			}
			if s.hasRoute {
				b.Admission = s.route - s.arrive
				b.Dispatch = s.enqueue - s.route
			} else {
				b.Dispatch = s.enqueue - s.arrive
			}
			bk := blameBatchKey{blameUnitKey{s.backend, s.unit}, s.execute, s.inc}
			cl := batchClose[bk]
			if cl < s.enqueue {
				cl = s.enqueue
			}
			b.Stall = cl - s.enqueue
			b.Queue = s.execute - cl
			b.GPU = e.At - s.execute
			b.Total = e.At - s.arrive
			out = append(out, b)
		case Drop:
			delete(spans, e.ReqID)
		}
	}

	// Co-residency interference: for each request's batch interval, how much
	// of it overlapped execute intervals of *other* units on the same
	// backend. Under temporal sharing units serialize on the device, so this
	// is zero; under spatial compute slices concurrent batches contend for
	// memory bandwidth and the model's dilated latency shows up here.
	for be := range byBackend {
		ivs := byBackend[be]
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].start != ivs[j].start {
				return ivs[i].start < ivs[j].start
			}
			return ivs[i].unit < ivs[j].unit
		})
	}
	blames := make([]RequestBlame, len(out))
	for i := range out {
		p := &out[i]
		inter := overlapOtherUnits(byBackend[p.backend], p.unit, p.execAt, p.execEnd)
		// GPU includes the reply hop, which interference cannot exceed.
		if inter > p.GPU {
			inter = p.GPU
		}
		p.Interference = inter
		p.Service = p.GPU - inter
		blames[i] = p.RequestBlame
	}
	return blames
}

// overlapOtherUnits returns how much of [start, end) is covered by the
// union of intervals belonging to other units. Intervals are sorted by
// start; the sweep advances a cursor so double-covered time counts once.
func overlapOtherUnits(intervals []execInterval, unit string, start, end time.Duration) time.Duration {
	var covered time.Duration
	cursor := start
	for _, iv := range intervals {
		if iv.start >= end {
			break
		}
		if iv.unit == unit || iv.end <= cursor {
			continue
		}
		s := iv.start
		if s < cursor {
			s = cursor
		}
		e := iv.end
		if e > end {
			e = end
		}
		if e > s {
			covered += e - s
			cursor = e
		}
	}
	return covered
}

// SessionBlames aggregates request decompositions into per-session mean and
// p99-tail breakdowns, sorted by session ID for deterministic output.
func SessionBlames(blames []RequestBlame) []SessionBlame {
	bySession := map[string][]RequestBlame{}
	for _, b := range blames {
		bySession[b.Session] = append(bySession[b.Session], b)
	}
	sessions := make([]string, 0, len(bySession))
	for s := range bySession {
		sessions = append(sessions, s)
	}
	sort.Strings(sessions)
	out := make([]SessionBlame, 0, len(sessions))
	for _, sid := range sessions {
		rs := bySession[sid]
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Total != rs[j].Total {
				return rs[i].Total < rs[j].Total
			}
			return rs[i].ReqID < rs[j].ReqID
		})
		sb := SessionBlame{Session: sid, Count: len(rs)}
		sb.P99 = rs[int(0.99*float64(len(rs)-1))].Total
		sb.Exemplar = rs[len(rs)-1].ReqID
		for _, r := range rs {
			sb.Mean.add(r.StageBlame)
			if r.Total >= sb.P99 {
				sb.Tail.add(r.StageBlame)
				sb.TailCount++
			}
		}
		sb.Mean.scale(sb.Count)
		sb.Tail.scale(sb.TailCount)
		out = append(out, sb)
	}
	return out
}

// WriteBlameReport renders per-session tail attributions: where the p99
// cohort's latency went, stage by stage, with the worst request's ID as an
// exemplar to pull from the trace with `nexus-trace -req`.
func WriteBlameReport(w io.Writer, blames []SessionBlame) error {
	if len(blames) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "p99 blame breakdown (per session, mean over the p99 tail cohort)"); err != nil {
		return err
	}
	for _, sb := range blames {
		if _, err := fmt.Fprintf(w, "  %-24s n=%-6d tail=%-4d p99=%-12v exemplar=req %d\n",
			sb.Session, sb.Count, sb.TailCount, sb.P99, sb.Exemplar); err != nil {
			return err
		}
		t := sb.Tail
		total := float64(t.Total)
		if total <= 0 {
			total = 1
		}
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"admission", t.Admission}, {"dispatch", t.Dispatch},
			{"batch-stall", t.Stall}, {"queue", t.Queue},
			{"gpu-service", t.Service}, {"interference", t.Interference},
		} {
			if _, err := fmt.Fprintf(w, "    %-13s %10.3fms %5.1f%% %s\n",
				st.name, MS(st.d), 100*float64(st.d)/total, bar(float64(st.d)/total)); err != nil {
				return err
			}
		}
	}
	return nil
}
