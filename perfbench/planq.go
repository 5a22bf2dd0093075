package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"viewplan"
	"viewplan/internal/engine"
	"viewplan/internal/workload"
)

// planCase is one query of a closed-loop PlanQuery workload, with the
// database its views are materialized in.
type planCase struct {
	name string
	text string
	vs   *viewplan.ViewSet
	db   *viewplan.Database
	req  viewplan.PlanRequest
	or   *oracle
	// want is PlanQuery's own result, which the traced replay must
	// reproduce byte for byte; plan is its chosen physical plan.
	want replayKey
	plan *viewplan.Plan
}

// planWorld is one set-up of a PlanQuery workload.
type planWorld struct {
	cases []*planCase
	// load and materialize split the set-up: generating and inserting
	// base rows, and MaterializeViews.
	load, materialize time.Duration
}

// planWorkload describes a closed-loop PlanQuery workload: one caller
// plans the cases in rotation, each call starting from query text.
type planWorkload struct {
	name string
	// prepare draws the workload's inputs from the seed, untimed, and
	// returns the set-up that builds a world from them.
	prepare func(seed int64) (func() (*planWorld, error), error)
	// setupRounds is how many times set-up runs; setup_s is the median.
	setupRounds int
	// tailPct is the percentile latency_tail_ms reports. The loop runs
	// past --seconds until it has enough samples for it.
	tailPct float64
}

// m2StarInstances is the number of seeded Fig. 6a star instances in
// m2_star's rotation. Instances differ several-fold in planning cost, so
// the rotation must be wide for its figures to repeat across seeds.
const m2StarInstances = 384

var m2Star = planWorkload{
	name:        "m2_star",
	prepare:     prepareM2Star,
	setupRounds: 5,
	// Operations on one instance repeat its cost, so the tail is taken
	// where many distinct instances lie beyond it, not at p99.
	tailPct: 90,
}

var execChain = planWorkload{
	name:    "exec_chain",
	prepare: prepareExecChain,
	// One set-up takes about 35 ms; 21 rounds span most of a second.
	setupRounds: 21,
	// Every operation plans the same query, so the tail is taken where
	// enough operations lie beyond it to repeat, not at p99.
	tailPct: 90,
}

func runM2Star(cfg config) (*report, error)    { return runPlanWorkload(cfg, m2Star) }
func runExecChain(cfg config) (*report, error) { return runPlanWorkload(cfg, execChain) }

// prepareM2Star draws m2_star's rotation: Fig. 6a star instances (8
// subgoals, 100 views over 16 relations, 100 rows per base relation
// over a 100-value domain), planned under M2 with at most 64
// rewritings, plus a scaled-up Section 5.1 car/loc/part instance, the
// one member whose CoreCover* result has filter classes, so filter
// selection runs. As in the paper's experiments, generated instances
// without an equivalent rewriting are skipped.
func prepareM2Star(seed int64) (func() (*planWorld, error), error) {
	rnd := rand.New(rand.NewSource(seed))
	type pick struct{ inst, data int64 }
	var picks []pick
	for len(picks) < m2StarInstances {
		p := pick{rnd.Int63(), rnd.Int63()}
		inst, err := workload.Generate(starConfig(p.inst))
		if err != nil {
			return nil, err
		}
		if ok, err := viewplan.HasRewriting(inst.Query, inst.Views); err != nil || !ok {
			continue
		}
		picks = append(picks, p)
	}
	clpSeed := rnd.Int63()
	req := viewplan.PlanRequest{Model: viewplan.M2, MaxRewritings: 64, Parallelism: 1, StreamExec: true}
	return func() (*planWorld, error) {
		w := &planWorld{}
		for i, p := range picks {
			t0 := time.Now()
			inst, err := workload.Generate(starConfig(p.inst))
			if err != nil {
				return nil, err
			}
			db := viewplan.NewDatabase()
			engine.NewDataGen(p.data, 100).FillForQuery(db, inst.Query, 100)
			t1 := time.Now()
			if err := db.MaterializeViews(inst.Views); err != nil {
				return nil, err
			}
			w.load += t1.Sub(t0)
			w.materialize += time.Since(t1)
			w.cases = append(w.cases, &planCase{
				name: fmt.Sprintf("star%d", i), text: inst.Query.String(), vs: inst.Views, db: db, req: req,
			})
		}
		c, load, mat, err := carLocPart(clpSeed, req)
		if err != nil {
			return nil, err
		}
		w.load += load
		w.materialize += mat
		w.cases = append(w.cases, c)
		return w, nil
	}, nil
}

func starConfig(seed int64) workload.Config {
	return workload.Config{Shape: workload.Star, QuerySubgoals: 8, NumViews: 100, Seed: seed}
}

// The paper's Section 5.1 instance (testdata/carlocpart.dl): v3 covers
// no query subgoal on its own, so it is a filter candidate.
const (
	carLocPartViews = `
		v1(M, D, C) :- car(M, D), loc(D, C).
		v2(S, M, C) :- part(S, M, C).
		v3(S) :- car(M, a), loc(a, C), part(S, M, C).
		v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
		v5(M, D, C) :- car(M, D), loc(D, C).`
	carLocPartQuery = "q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)"
)

// carLocPart scales the Section 5.1 instance up: 400 car models spread
// over 40 dealers (one of them a), each dealer in 3 of 100 cities, and
// 4000 parts over 1000 stores, drawn from seed. Few parts match a
// model sold at dealer a in one of a's cities, so v3 is a selective
// filter.
func carLocPart(seed int64, req viewplan.PlanRequest) (*planCase, time.Duration, time.Duration, error) {
	rnd := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	vs, err := viewplan.ParseViews(carLocPartViews)
	if err != nil {
		return nil, 0, 0, err
	}
	db := viewplan.NewDatabase()
	dealer := func(i int) viewplan.Const {
		if i == 0 {
			return "a"
		}
		return viewplan.Const(fmt.Sprintf("d%d", i))
	}
	ins := func(rel string, vals ...viewplan.Const) error { return db.Insert(rel, viewplan.Tuple(vals)) }
	for m := 0; m < 400; m++ {
		if err := ins("car", viewplan.Const(fmt.Sprintf("m%d", m)), dealer(rnd.Intn(40))); err != nil {
			return nil, 0, 0, err
		}
	}
	for d := 0; d < 40; d++ {
		for k := 0; k < 3; k++ {
			if err := ins("loc", dealer(d), viewplan.Const(fmt.Sprintf("c%d", rnd.Intn(100)))); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	for p := 0; p < 4000; p++ {
		err := ins("part", viewplan.Const(fmt.Sprintf("s%d", rnd.Intn(1000))),
			viewplan.Const(fmt.Sprintf("m%d", rnd.Intn(400))), viewplan.Const(fmt.Sprintf("c%d", rnd.Intn(100))))
		if err != nil {
			return nil, 0, 0, err
		}
	}
	t1 := time.Now()
	if err := db.MaterializeViews(vs); err != nil {
		return nil, 0, 0, err
	}
	c := &planCase{name: "carlocpart", text: carLocPartQuery, vs: vs, db: db, req: req}
	return c, t1.Sub(t0), time.Since(t1), nil
}

// execChainViews cover the three-hop chain with two two-hop views and
// the two end single-hop views, so every candidate rewriting has two
// subgoals. A third single-hop view would let the M2 search relax onto
// v1 × v3, a 10^10-row intermediate.
const execChainViews = `
	v12(X0, X1, X2) :- e1(X0, X1), e2(X1, X2).
	v23(X1, X2, X3) :- e2(X1, X2), e3(X2, X3).
	v1(X0, X1) :- e1(X0, X1).
	v3(X2, X3) :- e3(X2, X3).`

// execChainKeys is exec_chain's number of join keys. At the workload's
// default of 50,000 the working set outgrows the processor caches: the
// operation took 230 to 500 ms as other tenants of the host loaded its
// memory, and the median moved by 29% (IQR over median) across ten
// seeds, more than latency_p50_ms's bound. At 5,000 keys that spread
// is 8 to 12%, with the same three candidates, the same 32-row answer
// and the same blowup: PlanQuery's streaming peak is 20,032 rows against
// the cache-less floor of 32.
const execChainKeys = 5000

// prepareExecChain loads workload.ExecChain (execChainKeys keys, fan-out
// 4, 8 heads) with its rows inserted in an order drawn from seed.
func prepareExecChain(seed int64) (func() (*planWorld, error), error) {
	return func() (*planWorld, error) { return execChainWorld(seed) }, nil
}

func execChainWorld(seed int64) (*planWorld, error) {
	t0 := time.Now()
	stage := viewplan.NewDatabase()
	q, err := workload.ExecChain(stage, workload.ExecConfig{Keys: execChainKeys})
	if err != nil {
		return nil, err
	}
	vs, err := viewplan.ParseViews(execChainViews)
	if err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(seed))
	db := viewplan.NewDatabase()
	for _, rel := range []string{"e1", "e2", "e3"} {
		rows := stage.Relation(rel).Rows()
		for _, i := range rnd.Perm(len(rows)) {
			if err := db.Insert(rel, rows[i]); err != nil {
				return nil, err
			}
		}
	}
	t1 := time.Now()
	if err := db.MaterializeViews(vs); err != nil {
		return nil, err
	}
	req := viewplan.PlanRequest{Model: viewplan.M2, Parallelism: 1, StreamExec: true}
	return &planWorld{
		cases:       []*planCase{{name: "chain", text: q.String(), vs: vs, db: db, req: req}},
		load:        t1.Sub(t0),
		materialize: time.Since(t1),
	}, nil
}

// planOnce is one operation: parse the query text and plan, optimize
// and execute it through PlanQuery.
func planOnce(c *planCase) (*viewplan.PlanResult, error) {
	q, err := viewplan.ParseQuery(c.text)
	if err != nil {
		return nil, err
	}
	return viewplan.PlanQuery(c.db, q, c.vs, c.req)
}

// replayKey is what the traced replay must reproduce of PlanQuery's
// result.
type replayKey struct {
	rewriting string
	cost      int
	answer    string
}

func keyOf(res *viewplan.PlanResult) replayKey {
	if res == nil || res.Rewriting == nil {
		return replayKey{}
	}
	return replayKey{rewriting: res.Rewriting.String(), cost: res.Cost, answer: rowsInOrder(res.Answer)}
}

// replay performs PlanQuery's M2 pipeline step by step through the
// public layer functions, each call wrapped in a benchmark-owned span on
// tr: ParseQuery, CoreCover*, BestPlanM2 per candidate (with the IR
// cache attached exactly as PlanQuery attaches it), ImproveWithFilters,
// and streaming ExecutePlan.
func replay(c *planCase, tr *viewplan.Tracer) (*viewplan.PlanResult, error) {
	sp := tr.Start(spanParse)
	q, err := viewplan.ParseQuery(c.text)
	sp.End()
	if err != nil {
		return nil, err
	}
	db := c.db
	prev := db.Tracer()
	db.SetTracer(tr)
	defer db.SetTracer(prev)
	if db.IRCache() == nil {
		db.SetIRCache(viewplan.NewIRCache())
		defer db.SetIRCache(nil)
	}
	sp = tr.Start(spanCoreCover)
	res, err := viewplan.FindMinimalRewritingsWith(q, c.vs, viewplan.Options{
		MaxRewritings: c.req.MaxRewritings,
		Parallelism:   c.req.Parallelism,
		Tracer:        tr,
	})
	sp.End()
	if err != nil || len(res.Rewritings) == 0 {
		return nil, err
	}
	sp = tr.Start(spanOptimizer)
	var best *viewplan.PlanResult
	for _, p := range res.Rewritings {
		plan, err := viewplan.BestPlanM2(db, p)
		if err != nil {
			sp.End()
			return nil, err
		}
		if best == nil || plan.Cost < best.Cost {
			best = &viewplan.PlanResult{Rewriting: p.Clone(), Plan: plan, Cost: plan.Cost}
		}
	}
	sp.End()
	var candidates []viewplan.ViewTuple
	for _, fc := range res.FilterClasses() {
		candidates = append(candidates, fc.Members...)
	}
	if len(candidates) > 0 {
		sp = tr.Start(spanFilters)
		fr, err := viewplan.ImproveWithFilters(db, best.Rewriting, q, c.vs, candidates)
		sp.End()
		if err != nil {
			return nil, err
		}
		if fr.Plan.Cost < best.Cost {
			best.Rewriting, best.Plan, best.Cost, best.FiltersAdded = fr.Rewriting, fr.Plan, fr.Plan.Cost, fr.Added
		}
	}
	sp = tr.Start(spanExecute)
	answer, stats, err := viewplan.ExecutePlan(db, best.Plan, viewplan.ExecOptions{StreamExec: true})
	sp.End()
	if err != nil {
		return nil, err
	}
	best.Answer, best.ExecStats = answer, &stats
	return best, nil
}

// loopStats collects one closed-loop pass.
type loopStats struct {
	latMs     []float64
	allocs    map[*planCase][]float64
	peak      int64
	attempted int
	failed    int
}

// closedLoop plans the cases in rotation with tracing off until at
// least dur has passed and minSamples operations completed, or until
// capDur. Each operation is timed alone; its allocation count is the
// runtime.MemStats.Mallocs difference around it. Checks run between
// operations, outside the timed region.
func closedLoop(cases []*planCase, dur, capDur time.Duration, minSamples int) loopStats {
	st := loopStats{allocs: map[*planCase][]float64{}}
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= dur && len(st.latMs) >= minSamples) || el >= capDur {
			break
		}
		c := cases[i%len(cases)]
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := planOnce(c)
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		st.attempted++
		st.latMs = append(st.latMs, float64(dt)/float64(time.Millisecond))
		st.allocs[c] = append(st.allocs[c], float64(m1.Mallocs-m0.Mallocs))
		if err == nil {
			err = c.or.check(res)
		}
		if err != nil {
			st.fail(c, err)
			continue
		}
		if p := res.ExecStats.PeakResidentRows; p > st.peak {
			st.peak = p
		}
	}
	return st
}

func (st *loopStats) fail(c *planCase, err error) {
	st.failed++
	if st.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.name, err)
	}
}

// allocsPerOp averages, over the cases the loop reached, each case's
// median allocation count: deterministic per case, and weighted evenly
// whatever the number of operations in the run.
func (st *loopStats) allocsPerOp() float64 {
	var s float64
	for _, a := range st.allocs {
		s += median(a)
	}
	return s / float64(len(st.allocs))
}

// runPlanWorkload runs one closed-loop PlanQuery workload, end to end
// or traced.
func runPlanWorkload(cfg config, w planWorkload) (*report, error) {
	rep := newReport()
	setup, err := w.prepare(cfg.seed)
	if err != nil {
		return nil, err
	}
	world, setupTimes, err := setupPlanWorld(setup, w.setupRounds)
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = median(setupTimes)
	rep.metrics["setup_heap_mb"] = liveHeapMB()
	rep.metrics["engine.load_s"] = world.load.Seconds()
	rep.metrics["engine.materialize_s"] = world.materialize.Seconds()
	rep.notef("setup rounds=%d p10_s=%.4g p50_s=%.4g p90_s=%.4g",
		len(setupTimes), percentile(setupTimes, 10), median(setupTimes), percentile(setupTimes, 90))

	candidates := 0
	// Oracle references and one warm-up rotation, outside every timed
	// region: lazy join indexes get built and every case is checked once.
	for _, c := range world.cases {
		if c.or, err = newOracle(c.db, c.text, c.vs); err != nil {
			return nil, err
		}
		res, err := planOnce(c)
		rep.attempted++
		if err == nil {
			err = c.or.check(res)
		}
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: warm-up: %v\n", c.name, err)
			continue
		}
		c.want, c.plan = keyOf(res), res.Plan
		candidates += res.Considered
		if len(world.cases) <= 4 || c.name == "carlocpart" {
			rep.notef("case %s: candidates=%d cost=%d answer_rows=%d peak_rows=%d filters=%d rewriting=%s",
				c.name, res.Considered, res.Cost, res.Answer.Size(), res.ExecStats.PeakResidentRows, len(res.FiltersAdded), res.Rewriting)
		}
	}
	rep.notef("cases=%d candidates=%d", len(world.cases), candidates)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return rep, tracePlanWorkload(cfg, w, world, rep, dur)
	}
	st := closedLoop(world.cases, dur, 3*dur, samplesFor(w.tailPct))
	rep.attempted += st.attempted
	rep.failed += st.failed
	n := len(st.latMs)
	var busy float64
	for _, l := range st.latMs {
		busy += l
	}
	rep.metrics["latency_p50_ms"] = median(st.latMs)
	rep.metrics["latency_tail_ms"] = percentile(st.latMs, w.tailPct)
	// Completions per second of the caller's busy time: the checks and
	// allocation sampling between operations are not the program's.
	rep.metrics["throughput_ops"] = float64(n) / (busy / 1000)
	rep.metrics["allocs_per_op"] = st.allocsPerOp()
	if p, ok := tailPercentile(n); !ok || p < w.tailPct {
		rep.notef("warning: %d samples support only p%v, not the reported p%v", n, p, w.tailPct)
	}
	rep.notef("workload=%s cases=%d samples=%d tail=p%v peak_resident_rows=%d", w.name, len(world.cases), n, w.tailPct, st.peak)
	return rep, nil
}

// setupPlanWorld runs set-up rounds times from a collected heap and
// keeps the last world.
func setupPlanWorld(setup func() (*planWorld, error), rounds int) (*planWorld, []float64, error) {
	var world *planWorld
	var times []float64
	for i := 0; i < rounds; i++ {
		world = nil
		// Each round starts as a fresh process would: no garbage, and no
		// memory kept from the previous round.
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if world, err = setup(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return world, times, nil
}

// liveHeapMB is the live heap after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
