// Degraded-mode survival layer: routing-table leases, per-backend circuit
// breakers with an exponential-backoff retry budget, priority-aware
// token-bucket admission control, and data-link partition awareness. Every
// feature is opt-in and nil/zero when off, so a deployment that never
// enables it runs the exact same instruction stream as before (goldens
// stay byte-identical).
//
// Threading: everything here — configuration (EnableBreakers,
// SetAdmission, SetLinkDown, ...), the pick-side checks Dispatch makes and
// the delivery-side outcome hooks — runs on the goroutine that runs the
// simulation clock, so the state is plain fields with no synchronisation.
package frontend

import "time"

// ---------------------------------------------------------------------
// Routing-table leases.

// EnableRouteLease arms a TTL on the routing table: if no control-plane
// push (full table, delta, or explicit renewal) lands within ttl, the
// table is stale. With serveStale the frontend keeps routing on the stale
// table and counts every such dispatch; without it, stale dispatches are
// dropped unroutable — the "lease-expiry-without-repair" posture that
// collapses under a scheduler outage.
func (f *Frontend) EnableRouteLease(ttl time.Duration, serveStale bool) {
	f.leaseTTL = ttl
	f.serveStale = serveStale
	f.lastPush = f.clock.Now()
}

// RenewRouteLease marks the routing table fresh without changing it: the
// control plane calls it on epochs whose delta was empty, so an idle but
// healthy scheduler keeps the lease alive. Every table push renews too.
func (f *Frontend) RenewRouteLease() {
	if f.leaseTTL > 0 {
		f.lastPush = f.clock.Now()
	}
}

// RouteStaleness returns the age of the routing table: time since the last
// control-plane push or renewal (0 when leases are off).
func (f *Frontend) RouteStaleness() time.Duration {
	if f.leaseTTL <= 0 {
		return 0
	}
	return f.clock.Now() - f.lastPush
}

// LeaseExpired reports whether the routing table has outlived its TTL.
func (f *Frontend) LeaseExpired() bool {
	return f.leaseTTL > 0 && f.RouteStaleness() > f.leaseTTL
}

// StaleServed returns how many requests were routed on an expired lease.
func (f *Frontend) StaleServed() uint64 { return f.staleServed }

// ---------------------------------------------------------------------
// Per-backend circuit breakers.

// Breaker states. A breaker is created closed on a backend's first
// failure; threshold consecutive failures open it; after cooloff one probe
// is let through half-open, and its outcome closes or re-opens it.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateName names a breaker state for observers and telemetry.
func breakerStateName(s int) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is one backend's circuit state.
type breaker struct {
	state int
	fails int           // consecutive failures while closed
	until time.Duration // virtual time an open breaker may probe
}

// BreakerObserver sees every breaker state transition, for the chaos
// timeline (audit plane).
type BreakerObserver func(at time.Duration, backendID, from, to string)

// EnableBreakers arms per-backend circuit breakers: threshold consecutive
// dispatch failures open a backend's breaker, routing around it until a
// half-open probe succeeds after cooloff. The breaker map is populated for
// every known backend up front.
func (f *Frontend) EnableBreakers(threshold int, cooloff time.Duration) {
	if threshold < 1 {
		threshold = 1
	}
	f.breakers = make(map[string]*breaker, len(f.backends))
	for beID := range f.backends {
		f.breakers[beID] = &breaker{}
	}
	f.breakerThreshold = threshold
	f.breakerCooloff = cooloff
}

// SetBreakerObserver attaches a transition observer; nil detaches it.
func (f *Frontend) SetBreakerObserver(obs BreakerObserver) { f.onBreaker = obs }

// transition moves a breaker from one state to another, counting and
// observing it. It does nothing unless the breaker is in state from.
func (f *Frontend) transition(beID string, b *breaker, from, to int) {
	if from == to || b.state != from {
		return
	}
	b.state = to
	f.breakerTransitions++
	if f.onBreaker != nil {
		f.onBreaker(f.clock.Now(), beID, breakerStateName(from), breakerStateName(to))
	}
}

// breakerFailure records a dispatch failure against a backend (delivery
// side).
func (f *Frontend) breakerFailure(beID string) {
	b, ok := f.breakers[beID]
	if !ok {
		return
	}
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: straight back to open for another cooloff.
		b.until = f.clock.Now() + f.breakerCooloff
		f.transition(beID, b, breakerHalfOpen, breakerOpen)
	case breakerClosed:
		b.fails++
		if b.fails >= f.breakerThreshold {
			b.until = f.clock.Now() + f.breakerCooloff
			f.transition(beID, b, breakerClosed, breakerOpen)
		}
	}
}

// breakerSuccess records a successful enqueue on a backend (delivery side).
func (f *Frontend) breakerSuccess(beID string) {
	b, ok := f.breakers[beID]
	if !ok {
		return
	}
	b.fails = 0
	switch s := b.state; s {
	case breakerOpen, breakerHalfOpen:
		f.transition(beID, b, s, breakerClosed)
	}
}

// routeAllowed reports whether a backend may receive traffic right now:
// breaker closed, or open but past its cooloff (eligible for a probe).
// Half-open means a probe is already in flight, so keep avoiding it.
func (f *Frontend) routeAllowed(beID string) bool {
	b, ok := f.breakers[beID]
	if !ok {
		return true
	}
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return f.clock.Now() >= b.until
	default: // half-open
		return false
	}
}

// markProbe flips a cooled-off open breaker to half-open when its backend
// is actually picked — not merely considered — so exactly one probe is in
// flight and a pick that lands elsewhere doesn't wedge the breaker.
func (f *Frontend) markProbe(beID string) {
	if b, ok := f.breakers[beID]; ok && b.state == breakerOpen &&
		f.clock.Now() >= b.until {
		f.transition(beID, b, breakerOpen, breakerHalfOpen)
	}
}

// pickAvoiding is smooth weighted round-robin restricted to routes whose
// breakers admit traffic. A cut data link is deliberately NOT consulted
// here: the frontend has no oracle for link state and must discover a
// partition the way a real one does — failed dispatches trip the breaker,
// which then routes around the backend. Skipped routes neither accumulate
// credit nor count in the rotation total, so a recovered replica rejoins
// without a burst of banked credit. Returns false when no replica is
// currently allowed.
func (f *Frontend) pickAvoiding(st *sessionState) (resolvedRoute, bool) {
	state := st.wrr
	var total float64
	best := -1
	for i := range st.routes {
		beID := st.routes[i].BackendID
		if !f.routeAllowed(beID) {
			continue
		}
		w := st.routes[i].Weight
		state[i] += w
		total += w
		if best < 0 || state[i] > state[best] {
			best = i
		}
	}
	if best < 0 {
		return resolvedRoute{}, false
	}
	state[best] -= total
	f.markProbe(st.routes[best].BackendID)
	return st.routes[best], true
}

// BreakerTransitions returns the lifetime count of breaker state changes.
func (f *Frontend) BreakerTransitions() uint64 { return f.breakerTransitions }

// OpenBreakers returns how many backends are currently open or half-open
// (i.e. being routed around).
func (f *Frontend) OpenBreakers() int {
	n := 0
	for _, b := range f.breakers {
		if b.state != breakerClosed {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Retry budget.

// EnableBackoffRetry arms an exponential-backoff retry budget: a dispatch
// that fails because its target crashed, lost the unit, or sits behind a
// cut link is re-sent to a surviving replica up to budget times, waiting
// base<<(attempt-1) before each re-send, as long as the request's deadline
// still has room for the wait plus a network hop. A budget of 1 with a
// base of 0 is retry-once: one immediate re-send.
func (f *Frontend) EnableBackoffRetry(budget int, base time.Duration) {
	if budget < 0 {
		budget = 0
	}
	f.retryBudget = budget
	f.retryBase = base
}

// ---------------------------------------------------------------------
// Data-link partitions.

// SetLinkDown severs (down=true) or heals the frontend<->backend data
// link to one backend: dispatches to it fail as if the node were dead,
// while the scheduler — whose control link is separate — still sees its
// heartbeats. Reports whether the link state changed.
func (f *Frontend) SetLinkDown(beID string, down bool) bool {
	if f.linkDown == nil {
		if !down {
			return false
		}
		f.linkDown = make(map[string]bool)
	}
	if f.linkDown[beID] == down {
		return false
	}
	if down {
		f.linkDown[beID] = true
	} else {
		delete(f.linkDown, beID)
	}
	return true
}

// ---------------------------------------------------------------------
// Priority-aware admission control.

// AdmissionConfig is one session's token-bucket admission policy. Rate is
// the sustained admit rate (req/s) and Burst the bucket depth; Priority
// > 0 entitles the session to draw from the shared reserve (see
// SetAdmissionReserve) when its own bucket is empty, so overload sheds
// the lowest-value sessions first.
type AdmissionConfig struct {
	Rate     float64
	Burst    float64
	Priority int
}

// tokenBucket refills by elapsed virtual time, which keeps admission
// decisions deterministic: same arrival sequence, same sheds.
type tokenBucket struct {
	rate     float64
	burst    float64
	tokens   float64
	last     time.Duration
	priority int
}

// take refills the bucket to now and spends one token if it holds one.
func (tb *tokenBucket) take(now time.Duration) bool {
	if now > tb.last {
		tb.tokens += tb.rate * (now - tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// SetAdmission installs (or replaces) a session's admission policy. The
// bucket starts full.
func (f *Frontend) SetAdmission(session string, cfg AdmissionConfig) {
	if f.admission == nil {
		f.admission = make(map[string]*tokenBucket)
	}
	f.admission[session] = &tokenBucket{
		rate:     cfg.Rate,
		burst:    cfg.Burst,
		tokens:   cfg.Burst,
		last:     f.clock.Now(),
		priority: cfg.Priority,
	}
}

// SetAdmissionReserve installs the shared reserve bucket that priority
// sessions may draw from when their own bucket runs dry.
func (f *Frontend) SetAdmissionReserve(rate, burst float64) {
	f.reserve = &tokenBucket{rate: rate, burst: burst, tokens: burst, last: f.clock.Now()}
}

// admit charges one request against the session's bucket (or, for
// priority sessions, the shared reserve). Sessions without a policy are
// always admitted.
func (f *Frontend) admit(session string) bool {
	tb, ok := f.admission[session]
	if !ok {
		return true
	}
	now := f.clock.Now()
	if tb.take(now) {
		return true
	}
	return tb.priority > 0 && f.reserve != nil && f.reserve.take(now)
}

// AdmissionSheds returns how many requests admission control dropped.
func (f *Frontend) AdmissionSheds() uint64 { return f.admissionSheds }
