// Package frontend implements the Nexus data-plane frontend (§5): it holds
// the routing table published by the global scheduler, dispatches each
// request to a backend hosting its session (weighted by the plan's rate
// shares), and maintains the per-session request-rate statistics the
// control plane uses for epoch scheduling.
package frontend

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/backend"
	"nexus/internal/simclock"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// Route is one backend placement of a session.
type Route struct {
	BackendID string
	UnitID    string
	Weight    float64 // proportional share of the session's traffic
}

// RoutingTable maps session IDs to their routes.
type RoutingTable map[string][]Route

// Validate checks weights: every route must carry a positive, finite
// weight (NaN and ±Inf would silently corrupt the smooth-WRR accumulator)
// and name both a backend and a unit.
func (rt RoutingTable) Validate() error {
	for sid, routes := range rt {
		if len(routes) == 0 {
			return fmt.Errorf("frontend: session %s has no routes", sid)
		}
		for _, r := range routes {
			if math.IsNaN(r.Weight) || math.IsInf(r.Weight, 0) || r.Weight <= 0 {
				return fmt.Errorf("frontend: session %s route to %s has weight %v", sid, r.BackendID, r.Weight)
			}
			if r.BackendID == "" || r.UnitID == "" {
				return fmt.Errorf("frontend: session %s has incomplete route", sid)
			}
		}
	}
	return nil
}

// TableDelta is an incremental routing update: the control plane sends only
// the sessions whose routes changed since the generation it last pushed,
// instead of replacing the whole table. FromGen names the generation the
// delta applies on top of; a frontend holding any other generation (it
// missed a push, or repaired routes locally after a backend death) rejects
// the delta with ErrStaleDelta so the control plane falls back to a full
// SetTableGen resync.
type TableDelta struct {
	FromGen uint64
	Gen     uint64
	// Set installs (or replaces) the routes of each listed session.
	Set map[string][]Route
	// Remove deletes each listed session's routes (applied before Set).
	Remove []string
}

// ErrStaleDelta reports a generation mismatch between a delta and the
// frontend's routing state; the sender must full-resync.
var ErrStaleDelta = errors.New("frontend: delta generation mismatch, full resync required")

// DropFunc observes every request the frontend loses, with the reason:
// DropUnroutable (no route for the session, or route lease expired),
// DropOverload (target queue full), DropReconfig (unit vanished in a
// reconfiguration race, retry exhausted), DropFailure (target backend
// dead or unreachable, retry exhausted) or DropAdmission (shed by
// token-bucket admission control before routing).
type DropFunc func(req workload.Request, reason backend.Outcome)

// resolvedRoute is a Route with its backend pointer and unit slot resolved
// at table-push time, so the per-request send path hashes neither ID.
type resolvedRoute struct {
	Route
	be   *backend.Backend
	slot int
}

// sessionState is the per-session dispatch state: resolved routes and the
// smooth-WRR accumulator. Routes are written only when the state is
// created.
type sessionState struct {
	routes []resolvedRoute
	wrr    []float64
}

// tableState is the routing snapshot the dispatch path reads: the table,
// its resolved dispatch state per session index (nil for a session without
// routes), and the control-plane generation it corresponds to. Mutations
// (SetTable, ApplyDelta, RemoveBackend) build a fresh snapshot instead of
// editing in place, because the RoutingTable passed to SetTableGen may be
// shared with other frontend replicas.
type tableState struct {
	table    RoutingTable
	sessions []*sessionState
	gen      uint64
}

// session returns the dispatch state of a session index, or nil.
func (ts *tableState) session(i int32) *sessionState {
	if uint(i) < uint(len(ts.sessions)) {
		return ts.sessions[i]
	}
	return nil
}

// Frontend dispatches requests to backends.
type Frontend struct {
	clock    *simclock.Clock
	backends map[string]*backend.Backend
	// sessions is the deployment's session table: table pushes translate
	// session IDs to the indices requests carry.
	sessions *workload.Sessions
	netDelay time.Duration
	// extraDelay models an injected network-delay spike on every hop.
	extraDelay time.Duration

	// state is the current routing snapshot.
	state *tableState
	// tableVersion counts routing-table changes (control-plane pushes and
	// failure repairs), for telemetry.
	tableVersion uint64
	// dispatches and retries count routed requests and retry re-sends over
	// the frontend's lifetime, for telemetry.
	dispatches uint64
	retries    uint64

	// onDrop observes requests the frontend loses, with the reason.
	onDrop DropFunc

	// tracer, when set, records Route (backend picked) and Enqueue (request
	// entered the target unit's queue after the network hop) span events.
	tracer *trace.Tracer

	// Rate observation for the control plane: routed requests per session
	// index since windowFrom. Counts live outside the routing snapshot, so
	// a session whose routes change or vanish mid-window keeps its count.
	counts     []uint64
	windowFrom time.Duration

	// sendPool recycles in-flight send state (and its bound delivery
	// callback) so the per-request network hop allocates nothing. New seeds
	// it from a contiguous arena so a fresh frontend reaches steady state
	// without growing it.
	sendPool []*pendingSend
	// arenaHits/arenaGrows count sendPool reuses vs. fresh allocations, for
	// self-observability: a healthy steady state is all hits, and a growing
	// grow count means in-flight sends outrun the arena.
	arenaHits  uint64
	arenaGrows uint64

	// Degraded-mode survival state (see degraded.go). All nil/zero when the
	// layer is off, so the hot path pays one nil check per feature.
	// retryBudget > 0 re-sends failed dispatches after base<<(attempt-1).
	retryBudget int
	retryBase   time.Duration
	// leaseTTL > 0 arms routing-table leases: lastPush (virtual time of the
	// newest control-plane push) ages against it, and expired tables either
	// serve stale (counted) or stop routing.
	leaseTTL    time.Duration
	serveStale  bool
	lastPush    time.Duration
	staleServed uint64
	// breakers holds per-backend circuit state, one breaker per known
	// backend, built at EnableBreakers.
	breakers           map[string]*breaker
	breakerThreshold   int
	breakerCooloff     time.Duration
	breakerTransitions uint64
	onBreaker          BreakerObserver
	// linkDown marks backends behind a severed frontend<->backend link
	// (data partition): alive from the scheduler's view, unreachable here.
	linkDown map[string]bool
	// admission holds per-session token buckets; reserve is the shared
	// priority pool. admissionSheds counts DropAdmission outcomes.
	admission      map[string]*tokenBucket
	reserve        *tokenBucket
	admissionSheds uint64
}

// pendingSend is one request in flight across the frontend->backend network
// delay. Pooled on the frontend; deliver copies its fields out and releases
// the object before acting, so a nested retry may safely reuse it.
type pendingSend struct {
	f       *Frontend
	req     workload.Request
	r       resolvedRoute
	attempt int    // 1 on the first try
	fire    func() // bound deliver
}

func (p *pendingSend) deliver() {
	f, req, r, attempt := p.f, p.req, p.r, p.attempt
	p.req, p.r = workload.Request{}, resolvedRoute{}
	f.sendPool = append(f.sendPool, p)

	var err error
	switch {
	case r.be == nil:
		err = backend.ErrBackendDown
	case f.linkDown != nil && f.linkDown[r.BackendID]:
		// A severed frontend<->backend link looks exactly like a dead node
		// from this side: the dispatch is lost.
		err = backend.ErrBackendDown
	default:
		err = r.be.Enqueue(r.slot, req)
	}
	switch {
	case err == nil:
		if f.breakers != nil {
			f.breakerSuccess(r.BackendID)
		}
		if f.tracer != nil {
			now := f.clock.Now()
			f.tracer.Record(&trace.Event{
				At: now, Kind: trace.Enqueue, ReqID: req.ID,
				Session: req.Session, Backend: r.BackendID, Unit: r.UnitID,
				Dur: now - req.Arrival,
			})
		}
	case errors.Is(err, backend.ErrQueueFull):
		// Overload is the drop policy's job, not the retry path's:
		// bouncing the request to another replica would just smear the
		// hotspot. It is not a breaker signal either — the node is healthy.
		f.drop(req, backend.DropOverload)
	default:
		reason := backend.DropFailure
		if errors.Is(err, backend.ErrUnitRemoved) {
			reason = backend.DropReconfig
		}
		if f.breakers != nil {
			f.breakerFailure(r.BackendID)
		}
		// Exponential-backoff retry budget: re-send to a surviving replica
		// after base<<(attempt-1), as long as the budget and the request's
		// deadline both have room. A zero backoff re-sends inline.
		if attempt <= f.retryBudget {
			backoff := f.retryBase << (attempt - 1)
			if alt, ok := f.altRoute(req.SessionIndex, r.BackendID); ok &&
				req.Deadline-f.clock.Now() > backoff+f.netDelay+f.extraDelay {
				f.retries++
				next := attempt + 1
				if backoff == 0 {
					f.send(req, alt, next)
				} else {
					f.clock.After(backoff, func() { f.send(req, alt, next) })
				}
				return
			}
		}
		f.drop(req, reason)
	}
}

// DefaultNetDelay is the one-way frontend<->backend dispatch latency.
const DefaultNetDelay = 500 * time.Microsecond

// sendArenaSize is how many pendingSend objects New pre-allocates as one
// contiguous block. It caps the common in-flight count of a single
// network-delay window; past it the pool grows one object at a time.
const sendArenaSize = 64

// New creates a frontend over the given backends, routing the sessions of
// the given table: a routed session must be interned in it before its
// routes are pushed. netDelay < 0 uses the default; 0 is allowed (ideal
// network).
func New(clock *simclock.Clock, backends map[string]*backend.Backend, sessions *workload.Sessions,
	netDelay time.Duration, onDrop DropFunc) *Frontend {
	if netDelay < 0 {
		netDelay = DefaultNetDelay
	}
	f := &Frontend{
		clock:    clock,
		backends: backends,
		sessions: sessions,
		netDelay: netDelay,
		onDrop:   onDrop,
		state:    &tableState{table: RoutingTable{}},
	}
	// Request-callback arena: one block, bound callbacks included, so the
	// network hop never allocates while the in-flight window stays within
	// the arena.
	arena := make([]pendingSend, sendArenaSize)
	f.sendPool = make([]*pendingSend, 0, sendArenaSize)
	for i := range arena {
		p := &arena[i]
		p.f = f
		p.fire = p.deliver
		f.sendPool = append(f.sendPool, p)
	}
	return f
}

// NetDelay returns the configured one-way dispatch latency.
func (f *Frontend) NetDelay() time.Duration { return f.netDelay }

// SetTracer attaches a span tracer; nil detaches it.
func (f *Frontend) SetTracer(t *trace.Tracer) { f.tracer = t }

// SetExtraDelay injects a network-delay spike of d on top of the base
// dispatch latency for every subsequent hop; d ≤ 0 clears it.
func (f *Frontend) SetExtraDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	f.extraDelay = d
}

// SetTable installs a new routing table (control plane push, §5).
func (f *Frontend) SetTable(rt RoutingTable) error {
	return f.SetTableGen(rt, f.state.gen+1)
}

// SetTableGen installs a full routing table stamped with the control
// plane's generation: the initial push and the resync path of delta
// routing, after which subsequent deltas from that generation apply.
func (f *Frontend) SetTableGen(rt RoutingTable, gen uint64) error {
	if err := rt.Validate(); err != nil {
		return err
	}
	for _, routes := range rt {
		for _, r := range routes {
			if _, ok := f.backends[r.BackendID]; !ok {
				return fmt.Errorf("frontend: route to unknown backend %s", r.BackendID)
			}
		}
	}
	sessions := f.newSessions(nil)
	for sid, routes := range rt {
		f.setRoutes(sessions, sid, routes)
	}
	f.state = &tableState{table: rt, sessions: sessions, gen: gen}
	f.tableVersion++
	f.RenewRouteLease()
	return nil
}

// newSessions returns dispatch state for every interned session, copied
// from cur, and sizes the rate counts to match.
func (f *Frontend) newSessions(cur []*sessionState) []*sessionState {
	n := f.sessions.Len()
	if n > len(f.counts) {
		f.counts = append(f.counts, make([]uint64, n-len(f.counts))...)
	}
	sessions := make([]*sessionState, n)
	copy(sessions, cur)
	return sessions
}

// setRoutes gives a session fresh dispatch state over routes. A session
// the table never interned carries no requests and gets none.
func (f *Frontend) setRoutes(sessions []*sessionState, sid string, routes []Route) {
	if i, ok := f.sessions.Index(sid); ok {
		sessions[i] = &sessionState{routes: f.resolve(routes), wrr: make([]float64, len(routes))}
	}
}

// ApplyDelta applies an incremental routing update on top of the current
// table. Sessions untouched by the delta keep their dispatch state —
// including the smooth-WRR accumulator, so an unchanged session's replica
// split is not perturbed by other sessions' route changes. Changed sessions
// get fresh state; rate counts are per session, not per route, so every
// session keeps its window count. A generation mismatch (missed push,
// or local route repair after a backend death) returns ErrStaleDelta
// without touching anything; the caller resyncs with SetTableGen.
func (f *Frontend) ApplyDelta(d TableDelta) error {
	cur := f.state
	if cur.gen != d.FromGen {
		return fmt.Errorf("%w (have generation %d, delta from %d)", ErrStaleDelta, cur.gen, d.FromGen)
	}
	if err := RoutingTable(d.Set).Validate(); err != nil {
		return err
	}
	for _, routes := range d.Set {
		for _, r := range routes {
			if _, ok := f.backends[r.BackendID]; !ok {
				return fmt.Errorf("frontend: route to unknown backend %s", r.BackendID)
			}
		}
	}
	table := make(RoutingTable, len(cur.table)+len(d.Set))
	for sid, routes := range cur.table {
		table[sid] = routes
	}
	sessions := f.newSessions(cur.sessions)
	for _, sid := range d.Remove {
		delete(table, sid)
		if i, ok := f.sessions.Index(sid); ok {
			sessions[i] = nil
		}
	}
	for sid, routes := range d.Set {
		table[sid] = routes
		f.setRoutes(sessions, sid, routes)
	}
	f.state = &tableState{table: table, sessions: sessions, gen: d.Gen}
	f.tableVersion++
	f.RenewRouteLease()
	return nil
}

// Generation returns the control-plane generation of the routing state the
// frontend currently holds. Local route repairs bump it off the control
// plane's sequence, which is what makes the next delta detectably stale.
func (f *Frontend) Generation() uint64 { return f.state.gen }

// resolve caches the backend pointer and unit slot of each route. Callers
// have already validated that every target exists.
func (f *Frontend) resolve(routes []Route) []resolvedRoute {
	out := make([]resolvedRoute, len(routes))
	for i, r := range routes {
		be := f.backends[r.BackendID]
		out[i] = resolvedRoute{Route: r, be: be, slot: be.Slot(r.UnitID)}
	}
	return out
}

// Dispatch routes a request to a backend. Requests for sessions without a
// route are reported unroutable; token-bucket admission (when configured)
// sheds before routing with DropAdmission; an expired route lease either
// serves stale or stops routing.
//
// Like every Frontend method, Dispatch must be called from the goroutine
// that runs the simulation clock: it schedules the network hop as a clock
// event, and the frontend's state carries no synchronisation.
func (f *Frontend) Dispatch(req workload.Request) {
	if f.admission != nil && !f.admit(req.Session) {
		f.admissionSheds++
		f.drop(req, backend.DropAdmission)
		return
	}
	st := f.state.session(req.SessionIndex)
	if st == nil {
		f.drop(req, backend.DropUnroutable)
		return
	}
	if f.leaseTTL > 0 && f.clock.Now()-f.lastPush > f.leaseTTL {
		if !f.serveStale {
			// Lease expired and stale serving is off: the table can no
			// longer be trusted, so the request is unroutable.
			f.drop(req, backend.DropUnroutable)
			return
		}
		f.staleServed++
	}
	var r resolvedRoute
	if f.breakers != nil {
		var ok bool
		if r, ok = f.pickAvoiding(st); !ok {
			// Every replica's breaker is open: fail fast instead of
			// burning a network hop on a known-bad target.
			f.drop(req, backend.DropFailure)
			return
		}
	} else {
		r = st.pick()
	}
	f.counts[req.SessionIndex]++
	f.dispatches++
	if f.tracer != nil {
		f.tracer.Record(&trace.Event{
			At: f.clock.Now(), Kind: trace.Route, ReqID: req.ID,
			Session: req.Session, Backend: r.BackendID, Unit: r.UnitID,
		})
	}
	f.send(req, r, 1)
}

// send delivers req to route r after the network delay, classifying any
// enqueue failure. attempt is 1 on the first try; deliver consults the
// retry budget on failure.
func (f *Frontend) send(req workload.Request, r resolvedRoute, attempt int) {
	var p *pendingSend
	if n := len(f.sendPool); n > 0 {
		p = f.sendPool[n-1]
		f.sendPool = f.sendPool[:n-1]
		f.arenaHits++
	} else {
		p = &pendingSend{f: f}
		p.fire = p.deliver
		f.arenaGrows++
	}
	p.req, p.r, p.attempt = req, r, attempt
	f.clock.After(f.netDelay+f.extraDelay, p.fire)
}

// altRoute returns the session's first route to a reachable backend other
// than the one that just failed: alive, not behind a cut data link, and
// (when breakers are on) not breaker-open.
func (f *Frontend) altRoute(session int32, exclude string) (resolvedRoute, bool) {
	if st := f.state.session(session); st != nil {
		for _, r := range st.routes {
			if r.BackendID == exclude {
				continue
			}
			if r.be == nil || !r.be.Alive() {
				continue
			}
			if f.linkDown != nil && f.linkDown[r.BackendID] {
				continue
			}
			if f.breakers != nil {
				if !f.routeAllowed(r.BackendID) {
					continue
				}
				f.markProbe(r.BackendID)
			}
			return r, true
		}
	}
	return resolvedRoute{}, false
}

func (f *Frontend) drop(req workload.Request, reason backend.Outcome) {
	if f.onDrop != nil {
		f.onDrop(req, reason)
	}
}

// RemoveBackend repairs the routing table after a backend is declared
// dead: every route to it is deleted. The table object may be shared with
// other frontend replicas (each receives its own repair call), so the
// repair is copy-on-write. Smooth-WRR weights are proportional, which
// redistributes the dead replica's share across the survivors of each
// session automatically; the session's WRR accumulator is reset so stale
// credit cannot skew the new split. Sessions whose last replica died
// become unroutable until the control plane re-plans. Returns the number
// of sessions whose routes changed. A repair advances the generation off
// the control plane's sequence, so the next routing delta is rejected and
// the control plane resyncs in full.
func (f *Frontend) RemoveBackend(beID string) int {
	cur := f.state
	affected := 0
	var repaired RoutingTable
	sessions := cur.sessions
	for sid, routes := range cur.table {
		keep := routes[:0:0]
		for _, r := range routes {
			if r.BackendID != beID {
				keep = append(keep, r)
			}
		}
		if len(keep) == len(routes) {
			continue
		}
		if repaired == nil {
			repaired = make(RoutingTable, len(cur.table))
			for s, rs := range cur.table {
				repaired[s] = rs
			}
			sessions = f.newSessions(cur.sessions)
		}
		affected++
		if len(keep) == 0 {
			delete(repaired, sid)
			if i, ok := f.sessions.Index(sid); ok {
				sessions[i] = nil
			}
		} else {
			repaired[sid] = keep
			f.setRoutes(sessions, sid, keep)
		}
	}
	if repaired != nil {
		f.state = &tableState{table: repaired, sessions: sessions, gen: cur.gen + 1}
		f.tableVersion++
	}
	return affected
}

// TableVersion returns how many times the routing table has changed
// (control-plane pushes plus failure repairs).
func (f *Frontend) TableVersion() uint64 { return f.tableVersion }

// Dispatches returns how many requests this frontend has routed (excludes
// unroutable admission drops, which never reached a backend).
func (f *Frontend) Dispatches() uint64 { return f.dispatches }

// Retries returns how many dispatches were re-sent to another replica
// after hitting a dead backend or a reconfiguration race.
func (f *Frontend) Retries() uint64 { return f.retries }

// ArenaStats returns the send-arena reuse counters: pool hits (recycled
// send state) and grows (fresh allocations after the arena ran dry).
func (f *Frontend) ArenaStats() (hits, grows uint64) {
	return f.arenaHits, f.arenaGrows
}

// pick implements smooth weighted round-robin, which spreads a session's
// requests across its replicas proportionally and deterministically.
func (st *sessionState) pick() resolvedRoute {
	state := st.wrr
	var total float64
	best := 0
	for i := range st.routes {
		w := st.routes[i].Weight
		state[i] += w
		total += w
		if state[i] > state[best] {
			best = i
		}
	}
	state[best] -= total
	return st.routes[best]
}

// ObservedRates returns each session's request rate (req/s) since the last
// call, then resets the window. This feeds epoch scheduling ("load
// statistics from the runtime", §5).
func (f *Frontend) ObservedRates() map[string]float64 {
	elapsed := (f.clock.Now() - f.windowFrom).Seconds()
	rates := make(map[string]float64)
	for i, n := range f.counts {
		if n > 0 && elapsed > 0 {
			rates[f.sessions.ID(int32(i))] = float64(n) / elapsed
		}
	}
	clear(f.counts)
	f.windowFrom = f.clock.Now()
	return rates
}

// Sessions returns the sessions currently routable, sorted.
func (f *Frontend) Sessions() []string {
	table := f.state.table
	out := make([]string, 0, len(table))
	for sid := range table {
		out = append(out, sid)
	}
	sort.Strings(out)
	return out
}

// TableSnapshot returns a deep copy of the current routing table, for
// tests and tools that compare routing state across runs.
func (f *Frontend) TableSnapshot() RoutingTable {
	table := f.state.table
	out := make(RoutingTable, len(table))
	for sid, routes := range table {
		out[sid] = append([]Route(nil), routes...)
	}
	return out
}
