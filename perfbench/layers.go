package main

import (
	"fmt"
	"time"

	"viewplan"
)

// Benchmark-owned span names. Each wraps one call into a layer's public
// function; the program's own phases nest beneath them.
const (
	spanParse     = "bench.parse"
	spanCoreCover = "bench.corecover"
	spanOptimizer = "bench.optimizer"
	spanFilters   = "bench.filters"
	spanExecute   = "bench.execute"
)

// layerAcc sums the phase trees of many traced operations by phase name.
// Self times of all phases of one operation add up to the part of its
// wall time that some span covers; the rest is unattributed.
type layerAcc struct {
	ops    int
	wallNs int64
	self   map[string]int64
	total  map[string]int64
	ctr    map[string]int64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{self: map[string]int64{}, total: map[string]int64{}, ctr: map[string]int64{}}
}

// add folds one operation: its tracer snapshot and its wall time as the
// benchmark clocked it.
func (a *layerAcc) add(snap *viewplan.PlanningStats, wall time.Duration) {
	a.ops++
	a.wallNs += int64(wall)
	if snap == nil {
		return
	}
	a.addPhases(snap.Phases)
	for k, v := range snap.Counters {
		a.ctr[k] += v
	}
}

func (a *layerAcc) addPhases(ps []viewplan.PhaseStats) {
	for _, p := range ps {
		a.self[p.Phase] += p.SelfNanos
		a.total[p.Phase] += p.Nanos
		a.addPhases(p.Children)
	}
}

// selfSum is the wall time that some span covers, summed over all
// operations.
func (a *layerAcc) selfSum() int64 {
	var s int64
	for _, v := range a.self {
		s += v
	}
	return s
}

// unattributedNs is the per-operation wall time that no span covers:
// the glue between layer calls, and the benchmark's own bookkeeping.
func (a *layerAcc) unattributedNs() float64 {
	if a.ops == 0 {
		return 0
	}
	return float64(a.wallNs-a.selfSum()) / float64(a.ops)
}

// perOp returns a summed nanosecond value per operation, in the given
// unit.
func (a *layerAcc) perOp(ns int64, unit time.Duration) float64 {
	if a.ops == 0 {
		return 0
	}
	return float64(ns) / float64(a.ops) / float64(unit)
}

// count returns a counter per operation.
func (a *layerAcc) count(name string) float64 {
	if a.ops == 0 {
		return 0
	}
	return float64(a.ctr[name]) / float64(a.ops)
}

// ratio returns num / (num + other) over counters, and false when both
// are zero.
func (a *layerAcc) ratio(num, other string) (float64, bool) {
	n, o := a.ctr[num], a.ctr[other]
	if n+o == 0 {
		return 0, false
	}
	return float64(n) / float64(n+o), true
}

// yield returns part / whole over counters, and false when whole is zero.
func (a *layerAcc) yield(part, whole string) (float64, bool) {
	if a.ctr[whole] == 0 {
		return 0, false
	}
	return float64(a.ctr[part]) / float64(a.ctr[whole]), true
}

// plannerLayers reports the per-layer metrics every planning run shares:
// the CoreCover phases and counters and the containment counters.
func (a *layerAcc) plannerLayers(rep *report) {
	ms := time.Millisecond
	rep.metrics["corecover.minimize_ms"] = a.perOp(a.self["minimize"], ms)
	rep.metrics["corecover.view_grouping_ms"] = a.perOp(a.self["view-grouping"], ms)
	rep.metrics["corecover.view_tuples_ms"] = a.perOp(a.self["view-tuples"], ms)
	rep.metrics["corecover.tuple_cores_ms"] = a.perOp(a.self["tuple-cores"], ms)
	rep.metrics["corecover.cover_search_ms"] = a.perOp(a.self["cover-search"], ms)
	rep.metrics["corecover.verify_ms"] = a.perOp(a.self["verify"], ms)
	rep.metrics["corecover.cover_nodes"] = a.count("cover_nodes")
	rep.metrics["corecover.rewritings"] = a.count("rewritings")
	rep.metrics["containment.hom_searches"] = a.count("hom_searches")
	rep.metrics["containment.hom_backtracks"] = a.count("hom_backtracks")
	a.ratioMetric(rep, "corecover.verify_yield", "verify_accepted", "verify_checks", true,
		"no candidate cover reached verification")
	a.ratioMetric(rep, "containment.hom_cache_hit_ratio", "hom_cache_hits", "hom_cache_misses", false,
		"no homomorphism search went through the cache")
}

// engineLayers reports the engine counters and the join self time.
func (a *layerAcc) engineLayers(rep *report) {
	rep.metrics["engine.join_ms"] = a.perOp(a.self["engine-join"], time.Millisecond)
	rep.metrics["engine.join_steps"] = a.count("join_steps")
	rep.metrics["engine.join_rows"] = a.count("join_rows")
	rep.metrics["engine.probe_rows"] = a.count("join_probe_rows")
	a.ratioMetric(rep, "engine.ir_cache_hit_ratio", "ir_cache_hits", "ir_cache_misses", false,
		"no join consulted the intermediate-relation cache")
}

// ratioMetric sets a ratio metric, or records why it reads zero. With
// isYield, num counts a subset of den (accepted / checks); otherwise the
// ratio is num / (num + den) (hits / lookups).
func (a *layerAcc) ratioMetric(rep *report, name, num, den string, isYield bool, why string) {
	var v float64
	var ok bool
	if isYield {
		v, ok = a.yield(num, den)
	} else {
		v, ok = a.ratio(num, den)
	}
	if !ok {
		rep.zeroBecause(why, name)
		return
	}
	rep.metrics[name] = v
	if v == 0 {
		rep.zero[name] = fmt.Sprintf("%s stayed 0 (%s = %d)", num, den, a.ctr[den])
	}
}

// phaseLayer assigns each span to the module whose work it times.
var phaseLayer = map[string]string{
	spanParse:          "cq",
	spanCoreCover:      "corecover",
	"corecover":        "corecover",
	"minimize":         "corecover",
	"view-grouping":    "corecover",
	"view-tuples":      "corecover",
	"tuple-cores":      "corecover",
	"cover-search":     "corecover",
	"verify":           "corecover",
	"assemble":         "corecover",
	"parallel-fanout":  "corecover",
	spanOptimizer:      "cost",
	"m2-optimizer":     "cost",
	spanFilters:        "cost",
	"filter-selection": "cost",
	spanExecute:        "cost",
	"engine-join":      "engine",
}

// layerSelf sums self times by module, per operation, in ms. Spans the
// table does not know land under "other".
func (a *layerAcc) layerSelf() map[string]float64 {
	out := map[string]float64{}
	for phase, ns := range a.self {
		layer, ok := phaseLayer[phase]
		if !ok {
			layer = "other"
		}
		out[layer] += a.perOp(ns, time.Millisecond)
	}
	return out
}
