package scheduler

import (
	"math"
	"time"

	"nexus/internal/profiler"
)

// Planner is the control plane's squishy epoch planner (§6.1): Pack for the
// first plan and for spatial or hybrid placement, Incremental against the
// last committed plan after that, and a whole-plan hysteresis skip that
// carries the committed plan forward while no session's workload has moved
// beyond a relative rate band. The band reuses the split-hysteresis idiom
// the control plane already applies to query latency splits. The zero
// Planner is ready to use.
type Planner struct {
	prev *Plan
	sigs map[string]sessionSig
}

// PlanOpts selects per-epoch planning behaviour.
type PlanOpts struct {
	// Hysteresis is the relative rate band within which the planner skips
	// re-packing and carries its committed plan forward (0 disables
	// skipping, every epoch re-plans). The planner re-plans when any
	// session's rate moved more than Hysteresis*old (and more than an
	// absolute floor), its SLO or model changed, or the session set changed.
	Hysteresis float64
	// Force re-plans even inside the band. The control plane sets it on
	// admission-control re-iterations, whose globally scaled rates must
	// reach the plan.
	Force bool
}

// rateHysteresisFloor is the absolute rate change (r/s) below which a
// session never re-triggers packing, mirroring ratesChangedMaterially's
// guard in the control plane: sub-r/s wobbles on tiny sessions do not
// justify disturbing the plan.
const rateHysteresisFloor = 0.5

// sessionSig is the per-session signature hysteresis compares against: the
// values the committed plan was derived for.
type sessionSig struct {
	rate  float64
	slo   time.Duration
	model string
}

// PlanResult is one planning pass, not yet committed: the plan plus the
// planner state that Commit installs once the control plane accepts the
// plan (admission control may instead re-plan at scaled rates).
type PlanResult struct {
	Plan  *Plan
	Stats MoveStats
	// Skipped reports that the hysteresis band held and Plan is the
	// committed plan carried forward.
	Skipped bool

	sigs map[string]sessionSig
}

// Plan runs one planning pass. It does not mutate the planner: the control
// plane may call it several times per epoch while admission control scales
// rates, then Commit exactly the accepted result.
func (p *Planner) Plan(sessions []Session, profiles map[string]*profiler.Profile,
	cfg Config, opts PlanOpts) (*PlanResult, error) {
	if p.prev != nil && !opts.Force && opts.Hysteresis > 0 && !outsideBand(sessions, p.sigs, opts.Hysteresis) {
		return &PlanResult{
			Plan:    p.prev,
			Stats:   MoveStats{NodesKept: len(p.prev.GPUs)},
			Skipped: true,
			sigs:    p.sigs,
		}, nil
	}
	res := &PlanResult{}
	var err error
	// Incremental reuse does not understand slice-pinned placements, so
	// spatial and hybrid configs re-pack from scratch.
	if cfg.Placement == PlaceTemporal && p.prev != nil {
		res.Plan, res.Stats, err = Incremental(p.prev, sessions, profiles, cfg)
	} else {
		res.Plan, err = Pack(sessions, profiles, cfg)
	}
	if err != nil {
		return nil, err
	}
	if opts.Hysteresis > 0 {
		// Only the hysteresis band reads signatures.
		res.sigs = signatures(sessions)
	}
	return res, nil
}

// Commit installs an accepted planning pass as the state the next epoch
// plans incrementally against.
func (p *Planner) Commit(res *PlanResult) {
	p.prev = res.Plan
	p.sigs = res.sigs
}

// signatures captures the per-session values a fresh plan was derived for.
func signatures(sessions []Session) map[string]sessionSig {
	sigs := make(map[string]sessionSig, len(sessions))
	for _, s := range sessions {
		sigs[s.ID] = sessionSig{rate: s.Rate, slo: s.SLO, model: s.ModelID}
	}
	return sigs
}

// outsideBand reports whether the workload moved beyond the hysteresis band
// since the committed plan was derived.
func outsideBand(sessions []Session, sigs map[string]sessionSig, band float64) bool {
	if len(sessions) != len(sigs) {
		return true
	}
	for _, s := range sessions {
		old, ok := sigs[s.ID]
		if !ok || old.slo != s.SLO || old.model != s.ModelID {
			return true
		}
		if RateOutsideBand(old.rate, s.Rate, band, rateHysteresisFloor) {
			return true
		}
	}
	return false
}

// RateOutsideBand reports whether a rate moved from old to cur by more
// than both the relative band (a fraction of old) and the absolute floor
// in r/s. Re-planning triggers use it so that sub-floor wobbles on tiny
// sessions never disturb a plan.
func RateOutsideBand(old, cur, band, floor float64) bool {
	diff := math.Abs(cur - old)
	return diff > band*old && diff > floor
}
