package main

import (
	"math"
	"testing"
	"time"

	"viewplan"
)

func ph(name string, self, children time.Duration, kids ...viewplan.PhaseStats) viewplan.PhaseStats {
	return viewplan.PhaseStats{Phase: name, Count: 1, Nanos: int64(self + children), SelfNanos: int64(self), Children: kids}
}

// A traced operation: benchmark spans around each layer call, the
// program's phases nested beneath them.
func tracedOp() *viewplan.PlanningStats {
	ms := time.Millisecond
	return &viewplan.PlanningStats{
		Phases: []viewplan.PhaseStats{
			ph(spanParse, 1*ms, 0),
			ph(spanCoreCover, 2*ms, 8*ms,
				ph("corecover", 3*ms, 5*ms, ph("verify", 5*ms, 0))),
			ph(spanOptimizer, 4*ms, 16*ms,
				ph("m2-optimizer", 6*ms, 10*ms, ph("engine-join", 10*ms, 0))),
		},
		Counters: map[string]int64{
			"hom_cache_hits": 3, "hom_cache_misses": 1,
			"verify_checks": 4, "verify_accepted": 2,
		},
	}
}

func TestSelfTimesAddUpAndUnattributedIsTheRest(t *testing.T) {
	ms := time.Millisecond
	acc := newLayerAcc()
	acc.add(tracedOp(), 35*ms) // 31 ms under spans, 4 ms between them
	acc.add(tracedOp(), 33*ms) // 2 ms between them
	if got, want := acc.selfSum(), int64(62*ms); got != want {
		t.Errorf("selfSum = %v, want %v", time.Duration(got), time.Duration(want))
	}
	if got := acc.unattributedNs() / float64(ms); math.Abs(got-3) > 1e-9 {
		t.Errorf("unattributed = %v ms/op, want 3", got)
	}
	layers := acc.layerSelf()
	for layer, want := range map[string]float64{"cq": 1, "corecover": 10, "cost": 10, "engine": 10} {
		if math.Abs(layers[layer]-want) > 1e-9 {
			t.Errorf("layer %s self = %v ms/op, want %v", layer, layers[layer], want)
		}
	}
	if got := acc.perOp(acc.total[spanOptimizer], ms); got != 20 {
		t.Errorf("optimizer total = %v ms/op, want 20", got)
	}
	rep := newReport()
	acc.plannerLayers(rep)
	acc.engineLayers(rep)
	for name, want := range map[string]float64{
		"corecover.verify_ms":             5,
		"engine.join_ms":                  10,
		"corecover.verify_yield":          0.5,
		"containment.hom_cache_hit_ratio": 0.75,
	} {
		if got := rep.metrics[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if rep.zero["engine.ir_cache_hit_ratio"] == "" {
		t.Error("a ratio with no lookups reads zero without a stated reason")
	}
}

func TestUnknownSpansAreNotDropped(t *testing.T) {
	acc := newLayerAcc()
	snap := tracedOp()
	snap.Phases = append(snap.Phases, ph("new-phase", time.Millisecond, 0))
	acc.add(snap, 40*time.Millisecond)
	if got := acc.layerSelf()["other"]; got != 1 {
		t.Errorf("unmapped phase self = %v ms, want it under other", got)
	}
}
