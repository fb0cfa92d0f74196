package scheduler

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/profiler"
)

// Pack runs squishy bin packing (Algorithm 1): it saturates whole GPUs for
// large sessions, then best-fit-decreasing merges the residual loads into
// shared duty cycles. When cfg.Placement allows spatial multiplexing, a
// slice-packing pass between the two pins suitable residuals to
// fractional-SM partitions instead (ScheduleSpatial). The returned plan
// always passes Validate for the given sessions, profiles and config.
func Pack(sessions []Session, profiles map[string]*profiler.Profile, cfg Config) (*Plan, error) {
	nodes, residue, err := ScheduleSaturate(sessions, profiles, cfg)
	if err != nil {
		return nil, err
	}
	spatialNodes, residue, err := ScheduleSpatial(residue, profiles, cfg)
	if err != nil {
		return nil, err
	}
	resNodes, err := ScheduleResidue(residue, profiles, cfg)
	if err != nil {
		return nil, err
	}
	plan := &Plan{GPUs: append(append(nodes, spatialNodes...), resNodes...)}
	for i := range plan.GPUs {
		plan.GPUs[i].ID = fmt.Sprintf("n%d", i)
	}
	return plan, nil
}

// ScheduleSaturate allocates whole GPUs to sessions with enough load to
// saturate them (Algorithm 1, lines 4-11). It returns the saturated nodes
// and the residual per-session loads still to be packed.
func ScheduleSaturate(sessions []Session, profiles map[string]*profiler.Profile, cfg Config) ([]GPUPlan, []Session, error) {
	var nodes []GPUPlan
	var residue []Session
	for _, s := range sortSessions(sessions) {
		if err := s.Validate(); err != nil {
			return nil, nil, err
		}
		if s.Rate == 0 {
			continue
		}
		p, ok := profiles[s.ModelID]
		if !ok {
			return nil, nil, fmt.Errorf("scheduler: no profile for model %s (session %s)", s.ModelID, s.ID)
		}
		b, err := saturateBatch(s, p, cfg)
		if err != nil {
			return nil, nil, err
		}
		t := p.Throughput(b)
		n := int(s.Rate / t)
		for i := 0; i < n; i++ {
			nodes = append(nodes, saturatedNode(s, p, b, t))
		}
		if r := s.Rate - float64(n)*t; r > rateEpsilon {
			rs := s
			rs.Rate = r
			residue = append(residue, rs)
		}
	}
	return nodes, residue, nil
}

// saturateBatch is the batch B of session s's saturated nodes:
// argmax{b : factor*ℓ(b) <= SLO}, since the worst case is one full batch
// of waiting plus one of execution (§4.1).
func saturateBatch(s Session, p *profiler.Profile, cfg Config) (int, error) {
	b := p.MaxBatchWithin(time.Duration(float64(s.SLO) / cfg.sloFactor()))
	if b == 0 {
		return 0, fmt.Errorf("scheduler: session %s infeasible: %v*l(1)=%v exceeds SLO %v",
			s.ID, cfg.sloFactor(), time.Duration(cfg.sloFactor()*float64(p.BatchLatency(1))), s.SLO)
	}
	return b, nil
}

// saturatedNode is a whole GPU running session s's batch b back to back,
// serving rate of its load.
func saturatedNode(s Session, p *profiler.Profile, b int, rate float64) GPUPlan {
	return GPUPlan{
		Duty:      p.BatchLatency(b),
		Saturated: true,
		Allocs:    []Alloc{{SessionID: s.ID, ModelID: s.ModelID, Batch: b, Rate: rate}},
	}
}

// residualAlloc is the initial single-session allocation of a residual
// load (Algorithm 1, lines 12-15): the largest batch b whose duty cycle
// b/r plus execution still meets the SLO.
type residualAlloc struct {
	session Session
	profile *profiler.Profile
	batch   int
	duty    time.Duration
	occ     float64
}

// ResidualBatch computes the batch size and duty cycle for a residual load
// of the given rate under the SLO: the largest b with ℓ(b) + b/rate <= SLO.
// Low-rate sessions for which even b=1 cannot fill a duty cycle in time run
// at batch 1 with the duty cycle clamped to SLO - ℓ(1).
func ResidualBatch(p *profiler.Profile, slo time.Duration, rate float64) (batch int, duty time.Duration, err error) {
	if rate <= 0 {
		return 0, 0, fmt.Errorf("scheduler: ResidualBatch with rate %v", rate)
	}
	gather := func(b int) time.Duration {
		return time.Duration(float64(b) / rate * float64(time.Second))
	}
	feasible := func(b int) bool { return p.BatchLatency(b)+gather(b) <= slo }
	if !feasible(1) {
		// Too few requests to fill even a single-item duty cycle within
		// the SLO: run batch 1 whenever work arrives, with the duty cycle
		// bounded so worst-case latency still meets the SLO.
		duty = slo - p.BatchLatency(1)
		if duty <= 0 {
			return 0, 0, fmt.Errorf("scheduler: SLO %v below batch-1 latency %v for %s",
				slo, p.BatchLatency(1), p.ModelID)
		}
		return 1, duty, nil
	}
	lo, hi := 1, p.MaxBatch
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, gather(lo), nil
}

// ResidualPlacement expands one residual load into zero or more dedicated
// nodes plus at most one shareable allocation. The paper's batch choice
// (line 13) can select a batch whose execution latency exceeds its gather
// time b/r — a load no shared duty cycle can sustain (occupancy would top
// 1). Such loads get a dedicated node running the saturate batch
// back-to-back (worst case 2ℓ(B) <= SLO, §4.1), and only a sustainable
// remainder, if any, becomes a shareable residual allocation.
func ResidualPlacement(s Session, p *profiler.Profile, cfg Config) (dedicated []GPUPlan, rest *residualAlloc, err error) {
	rate := s.Rate
	for iter := 0; rate > rateEpsilon; iter++ {
		if iter > 10000 {
			return nil, nil, fmt.Errorf("scheduler: residual placement for %s did not converge", s.ID)
		}
		b, d, err := ResidualBatch(p, s.SLO, rate)
		if err != nil {
			return nil, nil, err
		}
		lat := p.BatchLatency(b)
		if lat <= d {
			rs := s
			rs.Rate = rate
			return dedicated, &residualAlloc{
				session: rs, profile: p, batch: b, duty: d,
				occ: float64(lat) / float64(d),
			}, nil
		}
		// Unsustainable as a shared allocation: dedicate a saturated node.
		bSat, err := saturateBatch(s, p, cfg)
		if err != nil {
			return nil, nil, err
		}
		serve := min(rate, p.Throughput(bSat))
		dedicated = append(dedicated, saturatedNode(s, p, bSat, serve))
		rate -= serve
	}
	return dedicated, nil, nil
}

// ScheduleResidue packs residual loads into shared nodes (Algorithm 1,
// lines 12-30): initial max-batch allocations, sorted by occupancy
// descending, merged best-fit into existing duty cycles.
func ScheduleResidue(residue []Session, profiles map[string]*profiler.Profile, cfg Config) ([]GPUPlan, error) {
	allocs := make([]residualAlloc, 0, len(residue))
	var dedicated []GPUPlan
	for _, s := range sortSessions(residue) {
		if s.Rate <= 0 {
			continue
		}
		p, ok := profiles[s.ModelID]
		if !ok {
			return nil, fmt.Errorf("scheduler: no profile for model %s (session %s)", s.ModelID, s.ID)
		}
		ded, rest, err := ResidualPlacement(s, p, cfg)
		if err != nil {
			return nil, err
		}
		dedicated = append(dedicated, ded...)
		if rest != nil {
			allocs = append(allocs, *rest)
		}
	}
	// Best-fit decreasing by occupancy (line 16).
	sort.SliceStable(allocs, func(i, j int) bool {
		if allocs[i].occ != allocs[j].occ {
			return allocs[i].occ > allocs[j].occ
		}
		return allocs[i].session.ID < allocs[j].session.ID
	})
	var nodes []*resNode
	for i := range allocs {
		item := &resNode{duty: allocs[i].duty, allocs: []residualAlloc{allocs[i]}}
		item.computeOcc()
		if !placeBestFit(item, nodes, cfg) {
			nodes = append(nodes, item)
		}
	}
	out := make([]GPUPlan, 0, len(nodes)+len(dedicated))
	out = append(out, dedicated...)
	for _, n := range nodes {
		out = append(out, n.toPlan())
	}
	return out, nil
}

// resNode is a shared GPU node under construction.
type resNode struct {
	duty   time.Duration
	allocs []residualAlloc
	occ    float64
	planID string // stable node ID, used by incremental scheduling
}

func (n *resNode) computeOcc() {
	var busy time.Duration
	for _, a := range n.allocs {
		busy += a.profile.BatchLatency(a.batch)
	}
	n.occ = float64(busy) / float64(n.duty)
}

func (n *resNode) memBytes() int64 {
	var sum int64
	for _, a := range n.allocs {
		sum += a.profile.MemBase + int64(a.batch)*a.profile.MemPerItem
	}
	return sum
}

func (n *resNode) toPlan() GPUPlan {
	g := GPUPlan{Duty: n.duty}
	for _, a := range n.allocs {
		g.Allocs = append(g.Allocs, Alloc{
			SessionID: a.session.ID,
			ModelID:   a.session.ModelID,
			Batch:     a.batch,
			Rate:      a.session.Rate,
		})
	}
	return g
}

// The residual-node kernel. Merging residual loads (Figure 7) is one rule:
// the merged duty cycle is the smallest of the parts', every batch becomes
// ceil(duty*rate) (which only shrinks batches, so SLOs are preserved), and
// the merge must fit every session's SLO, the duty cycle and the memory.
// fit checks the rule without allocating; merge builds the node only for
// the winning candidate; bestFit and drain are the two ways the packers
// apply it.

// mergedBatch is the batch a residual load of the given rate runs at in a
// duty cycle of length duty.
func mergedBatch(duty time.Duration, rate float64) int {
	return max(1, int(math.Ceil(duty.Seconds()*rate-1e-12)))
}

// fit reports whether allocations a and b fit one duty cycle of length
// duty, and the merged node's occupancy when they do.
func fit(duty time.Duration, a, b []residualAlloc, cfg Config) (occ float64, ok bool) {
	var busy time.Duration
	var mem int64
	for _, src := range [2][]residualAlloc{a, b} {
		for i := range src {
			al := &src[i]
			nb := mergedBatch(duty, al.session.Rate)
			if nb > al.profile.MaxBatch {
				return 0, false
			}
			lat := al.profile.BatchLatency(nb)
			if duty+lat > al.session.SLO {
				return 0, false
			}
			busy += lat
			mem += al.profile.MemBase + int64(nb)*al.profile.MemPerItem
		}
	}
	if busy > duty {
		return 0, false
	}
	if cfg.GPUMemBytes > 0 && mem > cfg.GPUMemBytes {
		return 0, false
	}
	return float64(busy) / float64(duty), true
}

// merge makes n the node fit accepted: duty cycle duty, allocations a then
// b at their merged batches, occupancy occ. It builds a fresh allocation
// slice, so a saved copy of n stays intact for rollback.
func (n *resNode) merge(duty time.Duration, a, b []residualAlloc, occ float64) {
	allocs := make([]residualAlloc, 0, len(a)+len(b))
	for _, src := range [2][]residualAlloc{a, b} {
		for _, al := range src {
			al.batch = mergedBatch(duty, al.session.Rate)
			allocs = append(allocs, al)
		}
	}
	n.duty, n.allocs, n.occ = duty, allocs, occ
}

// bestFit returns the index of the node that item merges into at the
// highest occupancy (Algorithm 1, line 19) and that occupancy, or -1 when
// item fits no node. Nil entries are skipped; ties go to the first node.
func bestFit(item *resNode, nodes []*resNode, cfg Config) (int, float64) {
	best, bestOcc := -1, 0.0
	for i, n := range nodes {
		if n == nil {
			continue
		}
		occ, ok := fit(min(n.duty, item.duty), n.allocs, item.allocs, cfg)
		if ok && (best < 0 || occ > bestOcc) {
			best, bestOcc = i, occ
		}
	}
	return best, bestOcc
}

// placeBestFit merges item into its best-fit node in place. It reports
// whether any node took it.
func placeBestFit(item *resNode, nodes []*resNode, cfg Config) bool {
	i, occ := bestFit(item, nodes, cfg)
	if i < 0 {
		return false
	}
	n := nodes[i]
	n.merge(min(n.duty, item.duty), n.allocs, item.allocs, occ)
	return true
}

// drain moves every allocation of n, best-fit, into the other nodes (nil
// entries and n itself must not be candidates). The moves must first also
// fit with every rate scaled by drainGrowthMargin. On failure every node is
// left exactly as it was.
func drain(n *resNode, nodes []*resNode, cfg Config) bool {
	type saved struct {
		node *resNode
		was  resNode
	}
	var undo []saved
	restore := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			*undo[i].node = undo[i].was
		}
		undo = undo[:0]
	}
	place := func(a residualAlloc) bool {
		item := &resNode{duty: a.duty, allocs: []residualAlloc{a}}
		i, occ := bestFit(item, nodes, cfg)
		if i < 0 {
			return false
		}
		to := nodes[i]
		undo = append(undo, saved{to, *to})
		to.merge(min(to.duty, item.duty), to.allocs, item.allocs, occ)
		return true
	}
	for _, a := range n.allocs {
		a.session.Rate *= drainGrowthMargin
		if !place(a) {
			restore()
			return false
		}
	}
	restore()
	for _, a := range n.allocs {
		if !place(a) {
			restore()
			return false
		}
	}
	return true
}
