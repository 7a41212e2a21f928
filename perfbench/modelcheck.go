package main

import (
	"fmt"
	"runtime"
	"time"

	"tokencmp/internal/mc"
	"tokencmp/internal/mc/models"
)

// mcCase is one Section 5 check with the counts
// internal/mc/equivalence_test.go pins for it (symmetry reduction on).
type mcCase struct {
	name      string
	build     func() mc.Model
	symmetric bool
	states    int
	trans     int
	diameter  int
	full      int
}

// mcCases: the symmetric, canonicalisation-heavy 4-cache arbiter model,
// the unsymmetric distributed-activation model (no canonicalisation),
// and the broadcast HammerCMP model.
var mcCases = []mcCase{
	{"token_arb_4c", func() mc.Model {
		cfg := models.DefaultTokenConfig(models.ArbiterAct)
		cfg.Caches = 4
		return models.NewTokenModel(cfg)
	}, true, 295713, 3110239, 22, 6947175},
	{"token_dst_3c", func() mc.Model {
		return models.NewTokenModel(models.DefaultTokenConfig(models.DistributedAct))
	}, false, 212400, 1753337, 22, 212400},
	{"hammer_3c", func() mc.Model {
		return models.DefaultHammerModel()
	}, true, 40549, 158519, 63, 233339},
}

// bfsPrefix is how many states the harness's own walk visits per
// model when it times successor generation, invariants and
// canonicalisation call by call.
const bfsPrefix = 20000

type modelcheck struct {
	models []mc.Model
	checks map[string][]float64 // traced rounds: seconds per check, by case
	counts struct{ states, full, trans int }
}

func newModelcheck() *modelcheck { return &modelcheck{checks: map[string][]float64{}} }

func (w *modelcheck) describe() string {
	return fmt.Sprintf("Section 5, checks TokenCMP-arb at 4 caches, TokenCMP-dst at 3 and HammerCMP at 3 per round with symmetry reduction, jobs=%d; exhaustive, so the seed is ignored; throughput is explored states per host second",
		runtime.NumCPU())
}

// setUp builds the models (symmetry descriptors included) and warms
// the checker up on the small safety-only token model, whose counts
// internal/mc/equivalence_test.go also pins.
func (w *modelcheck) setUp() error {
	w.models = w.models[:0]
	for _, c := range mcCases {
		w.models = append(w.models, c.build())
	}
	res := mc.CheckOpt(models.NewTokenModel(models.DefaultTokenConfig(models.SafetyOnly)),
		mc.Options{Jobs: runtime.NumCPU(), Symmetry: true})
	if !res.OK() || res.States != 243 || res.FullStates != 1020 {
		return fmt.Errorf("warm-up check: %v, pinned states=243 full=1020", res)
	}
	return nil
}

func (w *modelcheck) close() {}

func (w *modelcheck) round(r int, tr *tracer, ph *phase) {
	w.counts.states, w.counts.full, w.counts.trans = 0, 0, 0
	for i, c := range mcCases {
		ph.attempted++
		sp := tr.begin("mc.CheckOpt", 0, fmt.Sprintf("r%d/%s", r, c.name))
		res := mc.CheckOpt(w.models[i], mc.Options{Jobs: runtime.NumCPU(), Symmetry: true})
		if d := tr.end(sp); tr != nil {
			w.checks[c.name] = append(w.checks[c.name], d.Seconds())
		}
		ph.work += float64(res.States)
		w.counts.states += res.States
		w.counts.full += res.FullStates
		w.counts.trans += res.Transitions
		switch {
		case !res.OK() || res.Interrupted:
			ph.fail("round %d %s: %v", r, c.name, res)
		case res.Symmetry != c.symmetric || res.States != c.states || res.Transitions != c.trans ||
			res.Diameter != c.diameter || res.FullStates != c.full:
			ph.fail("round %d %s: symmetry=%v states=%d transitions=%d diameter=%d full=%d, pinned %v %d/%d/%d/%d",
				r, c.name, res.Symmetry, res.States, res.Transitions, res.Diameter, res.FullStates,
				c.symmetric, c.states, c.trans, c.diameter, c.full)
		}
	}
}

func (w *modelcheck) finish(_ int, _ *phase, layer map[string]float64) {
	layer["mc.states"] = float64(w.counts.states)
	layer["mc.full_states"] = float64(w.counts.full)
	layer["mc.transitions"] = float64(w.counts.trans)
}

func (w *modelcheck) traced(_ *tracer, _, _ *phase, layer map[string]float64) {
	for _, c := range mcCases {
		layer["mc."+c.name+".check_s"] = median(w.checks[c.name])
	}
	var succ, inv, canon struct {
		calls int
		ns    time.Duration
	}
	for _, m := range w.models {
		p := walkPrefix(m, bfsPrefix)
		succ.calls += p.expanded
		succ.ns += p.succ
		inv.calls += p.checked
		inv.ns += p.inv
		canon.calls += p.canonCalls
		canon.ns += p.canon
	}
	layer["mc.successors_ns"] = float64(succ.ns) / float64(succ.calls)
	layer["mc.invariant_ns"] = float64(inv.ns) / float64(inv.calls)
	layer["mc.canon_ns"] = float64(canon.ns) / float64(canon.calls)
}

// prefixCost is what walkPrefix timed.
type prefixCost struct {
	expanded, checked, canonCalls int
	succ, inv, canon              time.Duration
}

// walkPrefix explores m breadth first, one level at a time, until it
// has seen limit states, timing Model.Successors, Model.Check and
// (for symmetric models) Canonicalizer.Canonicalize as batches of
// calls so the clock's own cost stays out of the per-call figures.
func walkPrefix(m mc.Model, limit int) prefixCost {
	var p prefixCost
	var canon *mc.Canonicalizer
	seen := map[string]bool{}
	level := m.Initial()
	if s, ok := m.(mc.Symmetric); ok && len(level) > 0 {
		canon = s.Symmetry().NewCanonicalizer(len(level[0]))
	}
	for _, s := range level {
		seen[s] = true
	}
	// One SuccBuf per level: Successors appends, so the level's keys
	// stay valid (and mutable, for in-place canonicalisation) until the
	// next level resets it.
	var sb mc.SuccBuf
	for len(level) > 0 && len(seen) < limit {
		t0 := time.Now()
		for _, s := range level {
			_ = m.Check(s)
		}
		p.inv += time.Since(t0)
		p.checked += len(level)

		sb.Reset()
		t0 = time.Now()
		for _, s := range level {
			m.Successors(s, &sb)
		}
		p.succ += time.Since(t0)
		p.expanded += len(level)

		if canon != nil {
			t0 = time.Now()
			for i := 0; i < sb.Len(); i++ {
				canon.Canonicalize(sb.Key(i))
			}
			p.canon += time.Since(t0)
			p.canonCalls += sb.Len()
		}
		var next []string
		for i := 0; i < sb.Len(); i++ {
			if s := string(sb.Key(i)); !seen[s] && len(seen) < limit {
				seen[s] = true
				next = append(next, s)
			}
		}
		level = next
	}
	return p
}
