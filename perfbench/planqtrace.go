package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"viewplan"
)

// spanOps is how many traced operations keep every span for the span
// file: an m2_star operation alone records hundreds of engine joins.
const spanOps = 4

// tracePlanWorkload is the traced run of a PlanQuery workload: an
// untraced pass for reference, then a pass that replays PlanQuery step
// by step under benchmark-owned spans, each half of dur. Every replay
// must reproduce PlanQuery's rewriting, cost and answer byte for byte.
func tracePlanWorkload(cfg config, w planWorkload, world *planWorld, rep *report, dur time.Duration) error {
	half := dur / 2
	st := closedLoop(world.cases, half, half, 0)
	rep.attempted += st.attempted
	rep.failed += st.failed
	untracedP50 := median(st.latMs)

	acc := newLayerAcc()
	var latMs []float64
	var captured []*viewplan.Tracer
	peak := st.peak
	start := time.Now()
	for i := 0; time.Since(start) < half || i < len(world.cases); i++ {
		c := world.cases[i%len(world.cases)]
		tr := viewplan.NewTracer()
		if i < spanOps {
			// The first operations' spans are kept and written out when
			// the run ends.
			tr.CaptureEvents()
			captured = append(captured, tr)
		}
		t0 := time.Now()
		res, err := replay(c, tr)
		wall := time.Since(t0)
		rep.attempted++
		if err == nil && keyOf(res) != c.want {
			err = fmt.Errorf("traced replay differs from PlanQuery's result")
		}
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: replay: %v\n", c.name, err)
			continue
		}
		acc.add(tr.Snapshot(), wall)
		latMs = append(latMs, float64(wall)/float64(time.Millisecond))
		if p := res.ExecStats.PeakResidentRows; p > peak {
			peak = p
		}
	}

	// The execution floor: each chosen plan run again with no IR cache
	// attached, so nothing but the pipeline itself holds rows.
	var floor int64
	for _, c := range world.cases {
		if c.plan == nil {
			continue
		}
		answer, stats, err := viewplan.ExecutePlan(c.db, c.plan, viewplan.ExecOptions{StreamExec: true})
		if err == nil && rowsInOrder(answer) != c.want.answer {
			err = fmt.Errorf("cache-less execution changed the answer")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if stats.PeakResidentRows > floor {
			floor = stats.PeakResidentRows
		}
	}

	ms, us := time.Millisecond, time.Microsecond
	m := rep.metrics
	m["cq.parse_us"] = acc.perOp(acc.total[spanParse], us)
	m["corecover.ms"] = acc.perOp(acc.total[spanCoreCover], ms)
	acc.plannerLayers(rep)
	acc.engineLayers(rep)
	m["cost.optimizer_ms"] = acc.perOp(acc.total[spanOptimizer], ms)
	m["cost.m2_self_ms"] = acc.perOp(acc.self["m2-optimizer"], ms)
	m["cost.opt_states"] = acc.count("opt_states")
	m["cost.execute_ms"] = acc.perOp(acc.total[spanExecute], ms)
	m["cost.peak_resident_rows"] = float64(peak)
	m["cost.execute_peak_rows_nocache"] = float64(floor)
	if acc.total[spanFilters] == 0 {
		rep.zeroBecause("CoreCover* found no filter classes, so filter selection never runs",
			"cost.filter_selection_ms", "cost.filter_yield")
	} else {
		m["cost.filter_selection_ms"] = acc.perOp(acc.total[spanFilters], ms)
		acc.ratioMetric(rep, "cost.filter_yield", "filters_added", "filter_candidates", true,
			"filter selection tried no candidate")
	}
	m["bench.unattributed_ms"] = acc.unattributedNs() / float64(ms)
	tracedP50 := median(latMs)
	m["bench.trace_overhead_pct"] = (tracedP50 - untracedP50) / untracedP50 * 100
	rep.zeroBecause("PlanQuery plans here without a resident ViewCatalog or PlanCache",
		"corecover.plan_cache_hit_ratio", "corecover.plan_cache_evictions",
		"corecover.catalog_compile_ms", "corecover.catalog_swap_ms")
	rep.zeroBecause("the workload calls PlanQuery in process; the service layer is not used",
		"service.plan_ms", "service.handler_us", "service.codec_us", "service.transport_us", "service.mutation_ms")
	rep.zeroBecause("closed loop: operations have no arrival schedule to lag behind",
		"bench.generator_lag_ms")

	rep.notef("workload=%s traced_ops=%d untraced_ops=%d traced_p50_ms=%.4g untraced_p50_ms=%.4g",
		w.name, acc.ops, len(st.latMs), tracedP50, untracedP50)
	rep.notef("layer self ms/op: %s unattributed=%.4g", formatLayers(acc.layerSelf()), m["bench.unattributed_ms"])
	return writeSpans(cfg.spansPath, captured)
}

// formatLayers renders a layer → ms map in name order.
func formatLayers(layers map[string]float64) string {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%.4g ", n, layers[n])
	}
	return strings.TrimSpace(b.String())
}

// writeJSONFile writes v as JSON to path, creating its directory.
func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// writeSpans writes the captured spans as Chrome trace-event JSON.
func writeSpans(path string, tracers []*viewplan.Tracer) error {
	if len(tracers) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := viewplan.WriteTrace(f, tracers...); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
