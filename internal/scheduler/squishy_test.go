package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nexus/internal/profiler"
)

// randomResNode builds a shared node of 1-3 residual allocations with
// random rates, SLOs and standalone duty cycles over the given profiles.
// Nothing is checked for feasibility: fit must judge any combination.
func randomResNode(rng *rand.Rand, profiles []*profiler.Profile, tag string) *resNode {
	n := &resNode{duty: time.Duration(rng.Intn(200)+5) * time.Millisecond}
	for i := rng.Intn(3); i >= 0; i-- {
		p := profiles[rng.Intn(len(profiles))]
		s := Session{
			ID: fmt.Sprintf("%s%d", tag, i), ModelID: p.ModelID,
			SLO:  time.Duration(rng.Intn(400)+20) * time.Millisecond,
			Rate: rng.Float64() * 400,
		}
		n.allocs = append(n.allocs, residualAlloc{
			session: s, profile: p, batch: rng.Intn(p.MaxBatch) + 1,
			duty: time.Duration(rng.Intn(200)+5) * time.Millisecond,
		})
	}
	n.computeOcc()
	return n
}

// Property: the pure fit check and the node merge builds agree. For random
// node pairs, fit's verdict equals the feasibility of the built node judged
// from its own allocations (batch within the profile, duty+ℓ(b) within the
// SLO, batches within the duty cycle, memory within the cap), and fit's
// occupancy equals the built node's recomputed occupancy bit for bit.
func TestPropertyFitMatchesBuiltMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var profiles []*profiler.Profile
	for i := 0; i < 4; i++ {
		p := linearProfile(fmt.Sprintf("m%d", i),
			time.Duration(rng.Intn(2000)+200)*time.Microsecond,
			time.Duration(rng.Intn(20)+2)*time.Millisecond, 16+rng.Intn(48))
		p.MemBase = int64(rng.Intn(3)+1) << 30
		profiles = append(profiles, p)
	}
	for _, cfg := range []Config{{}, {GPUMemBytes: 4 << 30}} {
		var fits, misfits, memOnly int
		for trial := 0; trial < 4000; trial++ {
			a := randomResNode(rng, profiles, "a")
			b := randomResNode(rng, profiles, "b")
			duty := min(a.duty, b.duty)
			occ, ok := fit(duty, a.allocs, b.allocs, cfg)

			built := &resNode{}
			built.merge(duty, a.allocs, b.allocs, occ)
			wantOK := true
			var busy time.Duration
			for _, al := range built.allocs {
				if al.batch > al.profile.MaxBatch {
					wantOK = false
					break
				}
				lat := al.profile.BatchLatency(al.batch)
				if duty+lat > al.session.SLO {
					wantOK = false
				}
				busy += lat
			}
			if busy > duty {
				wantOK = false
			}
			overMem := cfg.GPUMemBytes > 0 && built.memBytes() > cfg.GPUMemBytes
			if wantOK && overMem {
				memOnly++
				wantOK = false
			}
			if ok != wantOK {
				t.Fatalf("cfg %+v trial %d: fit ok=%v, built node feasible=%v", cfg, trial, ok, wantOK)
			}
			if !ok {
				misfits++
				continue
			}
			fits++
			built.computeOcc()
			if math.Float64bits(occ) != math.Float64bits(built.occ) {
				t.Fatalf("cfg %+v trial %d: fit occ %v, built node occ %v", cfg, trial, occ, built.occ)
			}
		}
		if fits == 0 || misfits == 0 || (cfg.GPUMemBytes > 0 && memOnly == 0) {
			t.Fatalf("cfg %+v: degenerate sample: %d fits, %d misfits, %d memory-only misfits",
				cfg, fits, misfits, memOnly)
		}
	}
}

// A trial fit, and a best-fit scan made of trial fits, allocate nothing:
// only the winning merge builds a node.
func TestTrialFitDoesNotAllocate(t *testing.T) {
	p := linearProfile("m", time.Millisecond, 5*time.Millisecond, 64)
	cfg := Config{GPUMemBytes: 11 << 30}
	node := func(rate float64) *resNode {
		n := &resNode{duty: 100 * time.Millisecond, allocs: []residualAlloc{{
			session: Session{ID: fmt.Sprint(rate), ModelID: "m", SLO: 500 * time.Millisecond, Rate: rate},
			profile: p, batch: mergedBatch(100*time.Millisecond, rate), duty: 100 * time.Millisecond,
		}}}
		n.computeOcc()
		return n
	}
	a, item := node(200), node(50)
	nodes := []*resNode{a, nil, node(100), node(300)}
	if _, ok := fit(a.duty, a.allocs, item.allocs, cfg); !ok {
		t.Fatal("test nodes should merge")
	}
	if got := testing.AllocsPerRun(100, func() { fit(a.duty, a.allocs, item.allocs, cfg) }); got != 0 {
		t.Fatalf("fit allocates %v times per trial", got)
	}
	if got := testing.AllocsPerRun(100, func() { bestFit(item, nodes, cfg) }); got != 0 {
		t.Fatalf("bestFit allocates %v times per scan", got)
	}
}

// A drain that cannot place every allocation leaves every candidate node
// exactly as it was, although earlier allocations of the donor were
// already merged into candidates when the failure shows.
func TestFailedDrainRestoresNodes(t *testing.T) {
	const duty = 100 * time.Millisecond
	profile := func(id string, memBase int64) *profiler.Profile {
		return &profiler.Profile{
			ModelID: id, GPU: profiler.GTX1080Ti,
			Alpha: time.Millisecond, Beta: 5 * time.Millisecond, MaxBatch: 64,
			MemBase: memBase << 20,
		}
	}
	// Memory (MiB, cap 1000) decides who may share: A fits with X or Y, C
	// only with Y, D with nobody.
	px, py := profile("x", 400), profile("y", 100)
	pa, pc, pd := profile("a", 500), profile("c", 700), profile("d", 950)
	cfg := Config{GPUMemBytes: 1000 << 20}
	alloc := func(p *profiler.Profile, rate float64) residualAlloc {
		return residualAlloc{
			session: Session{ID: p.ModelID, ModelID: p.ModelID, SLO: 500 * time.Millisecond, Rate: rate},
			profile: p, batch: mergedBatch(duty, rate), duty: duty,
		}
	}
	node := func(allocs ...residualAlloc) *resNode {
		n := &resNode{duty: duty, allocs: allocs, planID: allocs[0].session.ID}
		n.computeOcc()
		return n
	}
	// X runs 65 ms of its 100 ms duty cycle and Y 55 ms. A (15 ms) goes
	// to X, the better fit. C takes Y's last 45 ms at its rate but needs
	// 51 ms at drainGrowthMargin times its rate.
	candidates := func() []*resNode {
		return []*resNode{node(alloc(px, 600)), nil, node(alloc(py, 500))}
	}
	snapshot := func(nodes []*resNode) []resNode {
		out := make([]resNode, len(nodes))
		for i, n := range nodes {
			if n != nil {
				out[i] = *n
				out[i].allocs = append([]residualAlloc(nil), n.allocs...)
			}
		}
		return out
	}

	cases := []struct {
		name  string
		donor *resNode
	}{
		{"no home for D", node(alloc(pa, 100), alloc(pd, 10))},
		{"C misses only with margin", node(alloc(pa, 100), alloc(pc, 400))},
	}
	for _, c := range cases {
		nodes := candidates()
		before := snapshot(nodes)
		if drain(c.donor, nodes, cfg) {
			t.Fatalf("%s: drain succeeded", c.name)
		}
		if after := snapshot(nodes); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: failed drain changed candidates:\nbefore %+v\nafter  %+v", c.name, before, after)
		}
		// The donor's first allocation alone drains into X, so the failure
		// above came after a merge that had to be rolled back.
		nodes = candidates()
		if !drain(node(c.donor.allocs[0]), nodes, cfg) || len(nodes[0].allocs) != 2 || len(nodes[2].allocs) != 1 {
			t.Fatalf("%s: first allocation alone did not drain into X: X %+v, Y %+v", c.name, nodes[0], nodes[2])
		}
	}

	// At 300 r/s C takes 35 ms of Y, and 40 ms at drainGrowthMargin times
	// its rate, so the same donor shape drains and the merges stay applied.
	nodes := candidates()
	if !drain(node(alloc(pa, 100), alloc(pc, 300)), nodes, cfg) {
		t.Fatal("drain with room for the margin failed")
	}
	if len(nodes[0].allocs) != 2 || len(nodes[2].allocs) != 2 || nodes[0].occ != 0.8 || nodes[2].occ != 0.9 {
		t.Fatalf("drain did not apply: X %+v, Y %+v", nodes[0], nodes[2])
	}
}
