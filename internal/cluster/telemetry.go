package cluster

import (
	"strconv"
	"time"

	"nexus/internal/metrics"
	"nexus/internal/telemetry"
)

// telemetrySampler is the pull side of the telemetry plane: every sampling
// tick it reads counters the simulation already maintains — the metrics
// recorder, frontend dispatch state, backend queues and devices, the
// scheduler — into the registry, then hands the collector a snapshot. No
// hot-path instrumentation is needed beyond the batch-grain execute-
// latency hook, so an enabled plane still never perturbs event order.
//
// Instrument handles are resolved once per session, frontend, backend and
// slice, when the sampler first meets it, so a steady-state tick builds no
// labeled canonical key.
type telemetrySampler struct {
	d *Deployment

	sessions  []*sessionInstr
	sessionOf map[string]*sessionInstr
	frontends []*frontendInstr
	// backends holds every backend ever sampled, so a released or parked
	// backend keeps exporting (zeroed) gauges instead of freezing at its
	// last value — stable key sets also keep flap detection bridged.
	backends  []*backendInstr
	backendOf map[string]*backendInstr
	// slices mirrors backends for compute slices: windowed per-slice
	// occupancy, and stable key sets after a slice is reconfigured away.
	// Only populated under spatial placement.
	slices []*sliceInstr
	// tick stamps the current sample; a backend or slice whose seen stamp
	// lags it was not live this tick.
	tick uint64
	// lastAt is the previous sample's time, for irregular final samples.
	lastAt time.Duration
}

// sessionInstr is one session's outcome counters.
type sessionInstr struct {
	st                   *metrics.SessionStats
	sent, good, bad      *telemetry.Counter
	late                 *telemetry.Counter
	deadline, unroutable *telemetry.Counter
	reconfig, overload   *telemetry.Counter
	failure              *telemetry.Counter
	admission            *telemetry.Counter // degraded mode only
}

// frontendInstr is one frontend's dispatch instruments.
type frontendInstr struct {
	dispatch, retries *telemetry.Counter
	tableVersion      *telemetry.Gauge
	// Degraded mode only.
	staleness, breakersOpen         *telemetry.Gauge
	staleServed, breakerTransitions *telemetry.Counter
	admissionShed                   *telemetry.Counter
}

// backendInstr is one backend's data-plane gauges, its execute-latency
// window, and the cumulative device counters at the previous sample.
type backendInstr struct {
	id                           string
	queue, up, incarnation       *telemetry.Gauge
	duty, batchSize              *telemetry.Gauge
	exec                         *telemetry.Window
	prevBusy                     time.Duration
	prevBatches, prevItems, seen uint64
	sliceOf                      map[string]*sliceInstr
}

// sliceInstr is one spatial unit's slice gauges.
type sliceInstr struct {
	frac, occupancy, queue *telemetry.Gauge
	prevBusy               time.Duration
	seen                   uint64
}

func newTelemetrySampler(d *Deployment) *telemetrySampler {
	return &telemetrySampler{
		d:         d,
		sessionOf: make(map[string]*sessionInstr),
		backendOf: make(map[string]*backendInstr),
	}
}

// backend returns the instruments of a backend, resolving its gauges on
// first sight.
func (ts *telemetrySampler) backend(beID string) *backendInstr {
	h := ts.instr(beID)
	if h.queue == nil {
		reg := ts.d.telem.Registry()
		h.queue = reg.Gauge("backend_queue_depth", "backend", beID)
		h.up = reg.Gauge("backend_up", "backend", beID)
		h.incarnation = reg.Gauge("backend_incarnation", "backend", beID)
		h.duty = reg.Gauge("backend_duty", "backend", beID)
		h.batchSize = reg.Gauge("backend_batch_size", "backend", beID)
		ts.backends = append(ts.backends, h)
	}
	return h
}

// execWindow returns the execute-latency window for a backend. The OnBatch
// hook calls it, so the window can register before the backend's gauges.
func (ts *telemetrySampler) execWindow(beID string) *telemetry.Window {
	h := ts.instr(beID)
	if h.exec == nil {
		h.exec = ts.d.telem.Registry().Window("backend_exec_ms", "backend", beID)
	}
	return h.exec
}

// instr returns a backend's handle set, creating it empty.
func (ts *telemetrySampler) instr(beID string) *backendInstr {
	h, ok := ts.backendOf[beID]
	if !ok {
		h = &backendInstr{id: beID}
		ts.backendOf[beID] = h
	}
	return h
}

// sample pulls every plane's state into the registry and ticks the
// collector. Runs on the simulation goroutine.
func (ts *telemetrySampler) sample() {
	d := ts.d
	now := d.Clock.Now()
	elapsed := now - ts.lastAt
	reg := d.telem.Registry()
	degraded := d.cfg.degraded()
	ts.tick++

	// Per-session outcome counters from the metrics recorder.
	if d.Recorder.NumSessions() != len(ts.sessions) {
		for _, sid := range d.Recorder.SessionIDs() {
			if _, ok := ts.sessionOf[sid]; ok {
				continue
			}
			h := &sessionInstr{
				st:         d.Recorder.Session(sid),
				sent:       reg.Counter("session_sent_total", "session", sid),
				good:       reg.Counter("session_good_total", "session", sid),
				bad:        reg.Counter("session_bad_total", "session", sid),
				deadline:   reg.Counter("session_drops_total", "session", sid, "cause", "deadline"),
				unroutable: reg.Counter("session_drops_total", "session", sid, "cause", "unroutable"),
				reconfig:   reg.Counter("session_drops_total", "session", sid, "cause", "reconfig"),
				overload:   reg.Counter("session_drops_total", "session", sid, "cause", "overload"),
				failure:    reg.Counter("session_drops_total", "session", sid, "cause", "failure"),
				late:       reg.Counter("session_late_total", "session", sid),
			}
			if degraded {
				h.admission = reg.Counter("session_drops_total", "session", sid, "cause", "admission")
			}
			ts.sessionOf[sid] = h
			ts.sessions = append(ts.sessions, h)
		}
	}
	for _, h := range ts.sessions {
		s := h.st
		h.sent.Set(float64(s.Sent))
		h.good.Set(float64(s.Good()))
		h.bad.Set(float64(s.Bad()))
		h.deadline.Set(float64(s.Dropped))
		h.unroutable.Set(float64(s.Unroutable))
		h.reconfig.Set(float64(s.Reconfig))
		h.overload.Set(float64(s.Overload))
		h.failure.Set(float64(s.Failed))
		h.late.Set(float64(s.Missed))
		h.admission.Set(float64(s.Admission))
	}

	// Per-frontend dispatch state. Degraded-mode survival instruments exist
	// only when the layer is on: a deployment without it keeps its exact
	// pre-existing metric key set.
	for i := len(ts.frontends); i < len(d.Frontends); i++ {
		l := strconv.Itoa(i)
		h := &frontendInstr{
			dispatch:     reg.Counter("frontend_dispatch_total", "frontend", l),
			retries:      reg.Counter("frontend_retries_total", "frontend", l),
			tableVersion: reg.Gauge("frontend_table_version", "frontend", l),
		}
		if degraded {
			h.staleness = reg.Gauge("frontend_route_staleness_ms", "frontend", l)
			h.staleServed = reg.Counter("frontend_stale_served_total", "frontend", l)
			h.breakersOpen = reg.Gauge("frontend_breakers_open", "frontend", l)
			h.breakerTransitions = reg.Counter("frontend_breaker_transitions_total", "frontend", l)
			h.admissionShed = reg.Counter("frontend_admission_shed_total", "frontend", l)
		}
		ts.frontends = append(ts.frontends, h)
	}
	for i, fe := range d.Frontends {
		h := ts.frontends[i]
		h.dispatch.Set(float64(fe.Dispatches()))
		h.retries.Set(float64(fe.Retries()))
		h.tableVersion.Set(float64(fe.TableVersion()))
		if degraded {
			h.staleness.Set(telemetry.MS(fe.RouteStaleness()))
			h.staleServed.Set(float64(fe.StaleServed()))
			h.breakersOpen.Set(float64(fe.OpenBreakers()))
			h.breakerTransitions.Set(float64(fe.BreakerTransitions()))
			h.admissionShed.Set(float64(fe.AdmissionSheds()))
		}
	}

	// Per-backend data-plane state. Live backends export real values;
	// backends that left the pool export zeros, keeping key sets stable.
	// Map order is harmless: each instrument is written once per tick and
	// the snapshot lays keys out sorted.
	for beID, be := range d.Pool.backends {
		h := ts.backend(beID)
		h.seen = ts.tick
		h.queue.Set(float64(be.QueuedTotal()))
		up := 0.0
		if be.Alive() {
			up = 1
		}
		h.up.Set(up)
		h.incarnation.Set(float64(be.Incarnation()))
		busy := be.Device().BusyTime()
		h.duty.Set(fraction(busy-h.prevBusy, elapsed))
		h.prevBusy = busy
		batches, items := be.BatchStats()
		avg := 0.0
		if db := batches - h.prevBatches; batches >= h.prevBatches && db > 0 {
			avg = float64(items-h.prevItems) / float64(db)
		}
		h.prevBatches, h.prevItems = batches, items
		h.batchSize.Set(avg)
		// Per-slice occupancy, only under spatial placement: a temporal
		// deployment keeps its exact pre-existing metric key set.
		if d.cfg.Placement != 0 {
			for _, st := range be.SliceStats() {
				sh := ts.slice(h, st.UnitID)
				sh.seen = ts.tick
				sh.frac.Set(st.Frac)
				sh.occupancy.Set(fraction(st.Busy-sh.prevBusy, elapsed))
				sh.prevBusy = st.Busy
				sh.queue.Set(float64(st.Queued))
			}
		}
	}
	for _, h := range ts.backends {
		if h.seen == ts.tick {
			continue
		}
		h.queue.Set(0)
		h.up.Set(0)
		h.duty.Set(0)
		h.batchSize.Set(0)
		h.prevBusy, h.prevBatches, h.prevItems = 0, 0, 0
	}
	for _, sh := range ts.slices {
		if sh.seen == ts.tick {
			continue
		}
		sh.frac.Set(0)
		sh.occupancy.Set(0)
		sh.queue.Set(0)
		sh.prevBusy = 0
	}

	// Control plane. Unlabeled keys need no canonicalization, so these
	// resolve by one registry lookup each.
	reg.Counter("sched_epochs_total").Set(float64(d.Sched.Epochs()))
	reg.Counter("sched_sessions_moved_total").Set(float64(d.Sched.TotalMoved()))
	reg.Gauge("sched_gpus_allocated").Set(float64(d.Pool.InUse()))
	reg.Gauge("sched_gpus_demanded").Set(float64(d.Sched.GPUsDemanded()))
	reg.Gauge("cluster_gpus_capacity").Set(float64(d.Pool.Capacity()))
	reg.Gauge("sched_plan_wall_ms").Set(telemetry.MS(d.Sched.LastPlanWall()))
	reg.Counter("cluster_unroutable_total").Set(float64(d.unroutable))
	if degraded {
		down := 0.0
		if d.Sched.Down() {
			down = 1
		}
		reg.Gauge("sched_down").Set(down)
		reg.Counter("sched_recoveries_total").Set(float64(d.Sched.Recoveries()))
		reg.Counter("sched_stale_echoes_total").Set(float64(d.Sched.StaleEchoes()))
		reg.Counter("sched_reregistered_total").Set(float64(d.Sched.Reregistered()))
		reg.Counter("sched_capped_pushes_total").Set(float64(d.Sched.CappedPushes()))
	}

	// Plan-hysteresis and delta-routing counters, only when the features
	// are on: a default deployment keeps its exact golden key set.
	if d.cfg.PlanHysteresis > 0 {
		reg.Counter("sched_plans_skipped_total").Set(float64(d.Sched.PlansSkipped()))
	}
	if d.cfg.DeltaRouting {
		deltas, fulls, sessions := d.Sched.RoutePushStats()
		reg.Counter("sched_delta_pushes_total").Set(float64(deltas))
		reg.Counter("sched_full_pushes_total").Set(float64(fulls))
		reg.Counter("sched_delta_sessions_total").Set(float64(sessions))
	}

	// Runtime self-observability, only on request: goroutines, heap, GC
	// pause, plus the frontends' send-arena reuse. Like WallTimings these
	// are nondeterministic, so they never appear in golden-compared streams.
	if d.telem.SelfObserve() {
		telemetry.SampleRuntime(reg)
		for i, fe := range d.Frontends {
			l := strconv.Itoa(i)
			hits, grows := fe.ArenaStats()
			reg.Counter("frontend_arena_hits_total", "frontend", l).Set(float64(hits))
			reg.Counter("frontend_arena_grows_total", "frontend", l).Set(float64(grows))
			rate := 0.0
			if hits+grows > 0 {
				rate = float64(hits) / float64(hits+grows)
			}
			reg.Gauge("frontend_arena_reuse_rate", "frontend", l).Set(rate)
		}
	}

	ts.lastAt = now
	d.telem.Tick(now)
}

// slice returns the instruments of one of a backend's slices, resolving
// them on first sight.
func (ts *telemetrySampler) slice(be *backendInstr, unitID string) *sliceInstr {
	if sh, ok := be.sliceOf[unitID]; ok {
		return sh
	}
	reg := ts.d.telem.Registry()
	sh := &sliceInstr{
		frac:      reg.Gauge("backend_slice_frac", "backend", be.id, "unit", unitID),
		occupancy: reg.Gauge("backend_slice_occupancy", "backend", be.id, "unit", unitID),
		queue:     reg.Gauge("backend_slice_queue_depth", "backend", be.id, "unit", unitID),
	}
	if be.sliceOf == nil {
		be.sliceOf = make(map[string]*sliceInstr)
	}
	be.sliceOf[unitID] = sh
	ts.slices = append(ts.slices, sh)
	return sh
}

// fraction is busy time over the sample interval, clamped to [0, 1]; zero
// when no time elapsed.
func fraction(busy, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	f := float64(busy) / float64(elapsed)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
