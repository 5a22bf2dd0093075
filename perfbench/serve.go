package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewplan"
	"viewplan/internal/service"
	"viewplan/internal/workload"
)

// serve_mixed: a seeded mix of requests goes to service.Server.Handler()
// over loopback HTTP on at most serveConns client connections, against
// the 200-view star catalog workload.ScaleCatalog(200, serveCatalogSeed):
// open loop at a fixed rate for allocations, and closed loop at
// saturation for latency and throughput. The catalog is fixed and
// the seed draws the traffic: from one catalog seed to the next the
// cost of a CoreCover* request moves by up to 2.7x (its rewritings
// number 1,200 to 2,600), which would swamp every figure this workload
// reports.
//
// The mix is a chosen model of a resident planning service, not a
// measured one: no trace of real traffic exists to draw it from. Its
// shares follow two stated aims, which the traced run checks by printing
// each class's share of requests and of server (handler) time:
//
//   - a cache hit is the median request, by a wide margin, so that
//     latency_p50_ms measures the resident steady state: transport,
//     codec and the plan cache;
//   - every /plan class carries at least 15% of server time, so that
//     throughput_ops and latency_tail_ms move with work on any of the
//     three paths (measured on two cores over three seeds: hot 22-24%,
//     cold 17-18%, CoreCover* 59-61%).
//
// The classes:
//
//   - 85% hot /plan requests over a 128-query hot set, mostly answered
//     by the plan cache;
//   - 10% cold GMR /plan requests, each a query not seen since the last
//     catalog swap: parse, CoreCover and the cache's miss path;
//   - 5% cold "star" /plan requests, which run CoreCover*. They ask
//     7-subgoal queries: over 8 subgoals one run returns 1,200 to 2,600
//     rewritings and costs 20 ms or more, and a few such requests would
//     decide every figure of the run;
//   - every 2000th request one /views/add or /views/remove of the same
//     extra view, alternating. Each swap bumps the catalog generation,
//     so the hot set misses the cache again. Between swaps about 1,700
//     hot requests fall on the 128 hot queries, so the cache reaches its
//     steady state (each hot query misses once, then hits about twelve
//     times) before the next swap resets it. The swaps themselves take
//     well under 1% of server time; their cost shows in the per-layer
//     corecover.catalog_swap_ms and in the hot set's misses.
const (
	serveViews       = 200
	serveCatalogSeed = 42
	serveCacheSize   = 1024
	serveConns       = 2
	serveHot         = 128
	serveColdPool    = 1024
	serveStarPool    = 256
	// Every serveMutateEvery-th request is a catalog mutation.
	serveMutateEvery = 2000
	serveStarShare   = 0.05
	serveColdShare   = 0.10

	// serveNominalRate is the fixed offered rate, in requests per second,
	// of the open-loop passes: a sixth of what the server sustains.
	serveNominalRate = 800
	// serveSegmentOps is the length of the request segment the saturated
	// passes replay: a whole number of add/remove pairs, and enough
	// requests for a p99 with at least ten beyond it.
	serveSegmentOps = 4000
	// One set-up takes about 2.5 ms. On a shared host, set-ups slow down
	// by about 1.7x in bursts of tens of milliseconds, input generation
	// and catalog compilation alike, with the same garbage collections
	// (none) and page faults as fast ones. 201 rounds span about a second,
	// so a burst covers a minority of them and the median stays fast.
	serveSetupRounds = 201
)

type opKind int

const (
	opHot opKind = iota
	opCold
	opStar
	opAdd
	opRemove
)

// serveOp is one request of the workload's sequence.
type serveOp struct {
	kind  opKind
	path  string
	body  []byte
	query string
	star  bool
}

// serveInputs are serve_mixed's generated inputs.
type serveInputs struct {
	views     *viewplan.ViewSet
	extra     string
	extraName string
	hot       []string
	cold      []string
	stars     []string
}

// serveGen draws the endless request sequence from the seed.
type serveGen struct {
	in      *serveInputs
	rnd     *rand.Rand
	n       int
	cold    int
	star    int
	mutates int
}

func (g *serveGen) next() serveOp {
	g.n++
	if g.n%serveMutateEvery == 0 {
		g.mutates++
		if g.mutates%2 == 1 {
			b, _ := json.Marshal(map[string]string{"view": g.in.extra})
			return serveOp{kind: opAdd, path: "/views/add", body: b}
		}
		b, _ := json.Marshal(map[string]string{"name": g.in.extraName})
		return serveOp{kind: opRemove, path: "/views/remove", body: b}
	}
	u := g.rnd.Float64()
	switch {
	case u < serveStarShare:
		g.star++
		return planOp(opStar, g.in.stars[g.star%len(g.in.stars)], true)
	case u < serveStarShare+serveColdShare:
		g.cold++
		return planOp(opCold, g.in.cold[g.cold%len(g.in.cold)], false)
	default:
		return planOp(opHot, g.in.hot[g.rnd.Intn(len(g.in.hot))], false)
	}
}

func (g *serveGen) take(n int) []serveOp {
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func planOp(kind opKind, query string, star bool) serveOp {
	b, _ := json.Marshal(service.PlanRequest{Query: query, Star: star})
	return serveOp{kind: kind, path: "/plan", body: b, query: query, star: star}
}

// generateServeInputs builds the 200-view star catalog
// (workload.ScaleCatalog) and the query pools: distinct 8-of-16-relation
// star queries, drawn without replacement, and the extra view.
func generateServeInputs(seed int64) (*serveInputs, error) {
	inst, err := workload.ScaleCatalog(serveViews, serveCatalogSeed)
	if err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(seed))
	vocab := workload.ScaleVocab(serveViews)
	seen := map[string]bool{}
	draw := func(n, subgoals int) []string {
		out := make([]string, 0, n)
		for len(out) < n {
			rels := rnd.Perm(vocab)[:subgoals]
			q := starQuery(rels)
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
		return out
	}
	in := &serveInputs{views: inst.Views, hot: draw(serveHot, 8), cold: draw(serveColdPool, 8), stars: draw(serveStarPool, 7)}
	rels := rnd.Perm(vocab)[:3]
	in.extraName = "vbench"
	in.extra = fmt.Sprintf("vbench(Y0, Y%d, Y%d, Y%d) :- e%d(Y0, Y%d), e%d(Y0, Y%d), e%d(Y0, Y%d)",
		rels[0]+1, rels[1]+1, rels[2]+1, rels[0]+1, rels[0]+1, rels[1]+1, rels[1]+1, rels[2]+1, rels[2]+1)
	return in, nil
}

// starQuery renders q(X0, Xr...) :- er(X0, Xr), ... over the given
// 0-based relation indexes, in increasing order.
func starQuery(rels []int) string {
	sorted := append([]int(nil), rels...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	head := []string{"X0"}
	var body []string
	for _, r := range sorted {
		v := "X" + strconv.Itoa(r+1)
		head = append(head, v)
		body = append(body, fmt.Sprintf("e%d(X0, %s)", r+1, v))
	}
	return "q(" + strings.Join(head, ", ") + ") :- " + strings.Join(body, ", ")
}

// serveWorld is one running server.
type serveWorld struct {
	srv     *service.Server
	hs      *http.Server
	url     string
	served  chan error
	compile time.Duration
	gen0    uint64
	// handlerNs holds the server-side wall time of the last request when
	// the handler is wrapped for the traced pass.
	handlerNs atomic.Int64
}

// startServe compiles the catalog and starts the HTTP server on a
// loopback port. With wrap, the handler records its wall time per
// request.
func startServe(in *serveInputs, wrap bool) (*serveWorld, error) {
	w := &serveWorld{served: make(chan error, 1)}
	t0 := time.Now()
	srv, err := service.New(service.Config{Views: in.views, CacheSize: serveCacheSize, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	w.compile = time.Since(t0)
	w.srv, w.gen0 = srv, srv.Catalog().Generation()
	h := srv.Handler()
	if wrap {
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			t := time.Now()
			inner.ServeHTTP(rw, r)
			w.handlerNs.Store(int64(time.Since(t)))
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: h}
	go func() { w.served <- w.hs.Serve(ln) }()
	return w, nil
}

// stop closes the server and waits for its Serve loop to return.
func (w *serveWorld) stop() {
	w.hs.Close()
	<-w.served
}

// client is a loopback HTTP client limited to conns connections.
func newServeClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one request and reads the whole response.
func post(c *http.Client, url string, op serveOp) ([]byte, error) {
	resp, err := c.Post(url+op.path, "application/json", bytes.NewReader(op.body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", op.path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// reqResult is one request's timeline and response.
type reqResult struct {
	due, sent, start, done time.Time
	body                   []byte
	err                    error
}

// openLoop offers ops at rate on conns connections. Request i is due at
// start + i/rate whatever happened before it; the generator never waits
// for responses.
func openLoop(c *http.Client, url string, ops []serveOp, rate float64, conns int) []reqResult {
	res := make([]reqResult, len(ops))
	queue := make(chan int, len(ops)) // sized to the number of sends
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &res[i]
				r.start = time.Now()
				r.body, r.err = post(c, url, ops[i])
				r.done = time.Now()
			}
		}()
	}
	defer preciseTimers()()
	interval := float64(time.Second) / rate
	begin := time.Now().Add(time.Millisecond)
	for i := range ops {
		due := begin.Add(time.Duration(float64(i) * interval))
		waitUntil(due)
		res[i].due, res[i].sent = due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// saturate sends ops as fast as conns connections take them, closed
// loop, and returns the results and the completion rate in requests per
// second.
func saturate(c *http.Client, url string, ops []serveOp, conns int) ([]reqResult, float64) {
	res := make([]reqResult, len(ops))
	queue := make(chan int, len(ops)) // sized to the number of sends
	for i := range ops {
		queue <- i
	}
	close(queue)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &res[i]
				r.start = time.Now()
				r.due, r.sent = r.start, r.start
				r.body, r.err = post(c, url, ops[i])
				r.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return res, float64(len(ops)) / time.Since(start).Seconds()
}

// latenciesMs returns each answered request's latency from its due
// time. Failed requests show in the failed count instead.
func latenciesMs(res []reqResult) []float64 {
	out := make([]float64, 0, len(res))
	for _, r := range res {
		if r.err == nil {
			out = append(out, float64(r.done.Sub(r.due))/float64(time.Millisecond))
		}
	}
	return out
}

// serveState is one of the two view worlds the mutations alternate
// between: the base catalog, and the base catalog plus the extra view.
type serveState int

// serveOracle checks responses against plans on fresh catalogs without a
// plan cache, one per view world.
type serveOracle struct {
	views    [2]*viewplan.ViewSet
	fresh    [2]*viewplan.ViewCatalog
	genState map[uint64]serveState
	refs     map[string]string
	extra    string
}

func newServeOracle(in *serveInputs, gen0 uint64) (*serveOracle, error) {
	base, err := viewplan.CompileViews(in.views, viewplan.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	extra, err := viewplan.ParseQuery(in.extra)
	if err != nil {
		return nil, err
	}
	defs := make([]*viewplan.Query, 0, len(in.views.Views)+1)
	for _, v := range in.views.Views {
		defs = append(defs, v.Def)
	}
	plus, err := viewplan.NewViews(append(defs, extra)...)
	if err != nil {
		return nil, err
	}
	withExtra, err := viewplan.CompileViews(plus, viewplan.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	return &serveOracle{
		views:    [2]*viewplan.ViewSet{in.views, plus},
		fresh:    [2]*viewplan.ViewCatalog{base, withExtra},
		genState: map[uint64]serveState{gen0: 0},
		refs:     map[string]string{},
		extra:    in.extraName,
	}, nil
}

// expected renders the fresh-catalog answer to one /plan request in
// one view world, after checking that each of its rewritings is an
// equivalent rewriting of the query.
func (o *serveOracle) expected(query string, star bool, st serveState) (string, error) {
	key := fmt.Sprintf("%d|%t|%s", st, star, query)
	if ref, ok := o.refs[key]; ok {
		return ref, nil
	}
	q, err := viewplan.ParseQuery(query)
	if err != nil {
		return "", err
	}
	opts := viewplan.Options{Parallelism: 1, Catalog: o.fresh[st]}
	var res *viewplan.Result
	if star {
		res, err = viewplan.FindMinimalRewritingsWith(q, nil, opts)
	} else {
		res, err = viewplan.FindGMRsWith(q, nil, opts)
	}
	if err != nil {
		return "", err
	}
	rws := make([]string, len(res.Rewritings))
	for i, p := range res.Rewritings {
		if !viewplan.IsEquivalentRewriting(p, q, o.views[st]) {
			return "", fmt.Errorf("rewriting %s is not equivalent to %s", p, q)
		}
		rws[i] = p.String()
	}
	ref := renderAnswer(q.String(), rws)
	o.refs[key] = ref
	return ref, nil
}

func renderAnswer(query string, rewritings []string) string {
	return query + "\n" + strings.Join(rewritings, "\n")
}

// verify checks every response of a pass and returns the decoded /plan
// responses by request index (nil for other requests) and the number of
// failed requests. Mutation responses are checked first, so that every
// generation a /plan response names maps to its view world.
func (o *serveOracle) verify(ops []serveOp, res []reqResult) ([]*service.PlanResponse, int) {
	failed := 0
	fail := func(i int, err error) {
		failed++
		if failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: serve_mixed request %d (%s): %v\n", i, ops[i].path, err)
		}
	}
	for i, op := range ops {
		if op.kind != opAdd && op.kind != opRemove || res[i].err != nil {
			continue
		}
		var vr service.ViewsResponse
		if err := json.Unmarshal(res[i].body, &vr); err != nil {
			continue
		}
		has := false
		for _, n := range vr.Views {
			has = has || n == o.extra
		}
		if has == (op.kind == opAdd) {
			o.genState[vr.Generation] = map[bool]serveState{false: 0, true: 1}[has]
		}
	}
	plans := make([]*service.PlanResponse, len(ops))
	for i, op := range ops {
		if res[i].err != nil {
			fail(i, res[i].err)
			continue
		}
		if op.kind == opAdd || op.kind == opRemove {
			var vr service.ViewsResponse
			if err := json.Unmarshal(res[i].body, &vr); err != nil {
				fail(i, err)
			} else if _, ok := o.genState[vr.Generation]; !ok {
				fail(i, fmt.Errorf("mutation left the catalog in an unexpected state"))
			}
			continue
		}
		var pr service.PlanResponse
		if err := json.Unmarshal(res[i].body, &pr); err != nil {
			fail(i, err)
			continue
		}
		st, ok := o.genState[pr.Generation]
		if !ok {
			fail(i, fmt.Errorf("response names unknown catalog generation %d", pr.Generation))
			continue
		}
		want, err := o.expected(op.query, op.star, st)
		if err != nil {
			fail(i, err)
			continue
		}
		if got := renderAnswer(pr.Query, pr.Rewritings); got != want {
			fail(i, fmt.Errorf("response differs from a fresh catalog without cache"))
			continue
		}
		plans[i] = &pr
	}
	return plans, failed
}

// serveSession is one set-up of serve_mixed: inputs, running server,
// client, request sequence and oracle.
type serveSession struct {
	in     *serveInputs
	world  *serveWorld
	client *http.Client
	gen    *serveGen
	oracle *serveOracle
	// memo mirrors the keys the server has memoized, so that the traced
	// pass knows which requests the server parsed.
	memo map[string]bool
}

func (s *serveSession) close() {
	s.client.CloseIdleConnections()
	s.world.stop()
}

// setupServe runs set-up serveSetupRounds times — input generation,
// catalog compilation, server start — and keeps the last server.
func setupServe(seed int64, wrap bool) (*serveSession, []float64, error) {
	var s *serveSession
	var times []float64
	for i := 0; i < serveSetupRounds; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		// Each round starts as a fresh process would: no garbage, and no
		// memory kept from the previous round.
		debug.FreeOSMemory()
		t0 := time.Now()
		in, err := generateServeInputs(seed)
		if err != nil {
			return nil, nil, err
		}
		w, err := startServe(in, wrap)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		s = &serveSession{in: in, world: w, client: newServeClient(serveConns),
			gen: &serveGen{in: in, rnd: rand.New(rand.NewSource(seed))}, memo: map[string]bool{}}
	}
	o, err := newServeOracle(s.in, s.world.gen0)
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.oracle = o
	return s, times, nil
}

func runServeMixed(cfg config) (*report, error) {
	s, setupTimes, err := setupServe(cfg.seed, cfg.trace)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep := newReport()
	rep.metrics["setup_s"] = median(setupTimes)
	rep.metrics["setup_heap_mb"] = liveHeapMB()
	rep.notef("setup rounds=%d p10_s=%.4g p50_s=%.4g p90_s=%.4g",
		len(setupTimes), percentile(setupTimes, 10), median(setupTimes), percentile(setupTimes, 90))

	// Warm-up, outside every timed region: open both connections and let
	// the hot set reach the cache.
	warm := s.gen.take(2 * serveMutateEvery)
	wres, _ := saturate(s.client, s.world.url, warm, serveConns)
	s.check(rep, warm, wres)

	if cfg.trace {
		return rep, s.traced(cfg, rep)
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()

	// Allocations at the nominal rate, open loop, for 40% of the run,
	// over a whole number of add/remove pairs. The open-loop latencies
	// are printed but not reported. At this rate the server idles between
	// requests, so their median is set by how fast the host wakes idle
	// processors: during minutes of load on the host it rose by half and
	// its IQR over ten seeds reached 0.35, while the saturated figures
	// below moved by a tenth to a fifth. Their p99 is set by the rare
	// moments when two slow requests hold both connections.
	pair := 2 * serveMutateEvery
	n0 := int(serveNominalRate*0.4*dur.Seconds()) / pair * pair
	if n0 < pair {
		n0 = pair
	}
	ops := s.gen.take(n0)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := openLoop(s.client, s.world.url, ops, serveNominalRate, serveConns)
	runtime.ReadMemStats(&m1)
	s.check(rep, ops, res)
	lat := latenciesMs(res)
	rep.metrics["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(ops))
	rep.notef("open loop rate=%d req/s samples=%d p50_ms=%.4g p99_ms=%.4g %s",
		serveNominalRate, len(ops), median(lat), percentile(lat, 99), splitDelays(res))

	// Latency and throughput for the rest of the run: one request segment
	// replayed closed loop on both connections, as fast as the server
	// answers, at least three times. Its add/remove pair moves the catalog
	// to fresh generations, so a replay finds its cold requests cold
	// again. latency_p50_ms and latency_tail_ms are the median and p99
	// round trip of that saturated server.
	segment := s.gen.take(serveSegmentOps)
	var rates, satLat []float64
	for len(rates) < 3 || time.Since(start) < dur {
		runtime.GC()
		res, rate := saturate(s.client, s.world.url, segment, serveConns)
		s.check(rep, segment, res)
		rates = append(rates, rate)
		satLat = append(satLat, latenciesMs(res)...)
	}
	rep.metrics["latency_p50_ms"] = median(satLat)
	rep.metrics["latency_tail_ms"] = percentile(satLat, 99)
	rep.metrics["throughput_ops"] = median(rates)
	rep.notef("saturated replays=%d samples=%d p50_ms=%.4g p99_ms=%.4g req/s=%.1f",
		len(rates), len(satLat), median(satLat), percentile(satLat, 99), median(rates))
	return rep, nil
}

// check verifies one pass's responses and counts its requests. It
// returns the decoded /plan responses by request index and whether the
// server parsed each one's query text.
func (s *serveSession) check(rep *report, ops []serveOp, res []reqResult) ([]*service.PlanResponse, []bool) {
	plans, failed := s.oracle.verify(ops, res)
	rep.attempted += len(ops)
	rep.failed += failed
	parsed := make([]bool, len(ops))
	for i, pr := range plans {
		if pr != nil {
			parsed[i] = s.serverParsed(ops[i], pr)
		}
	}
	return plans, parsed
}

// serverParsed reports whether the server parsed the query text of one
// answered /plan request, and records what the server memoized.
// service.Server.Plan keeps the parsed query and rendered answer of a
// (query, star, generation) key from that key's first plan-cache hit on,
// and parses only keys it has not kept. Its cap of 4 x CacheSize kept
// keys per generation is never reached here, where a generation lasts
// serveMutateEvery requests. On one connection, as in the traced pass,
// requests reach the server in index order and the mirror is exact.
func (s *serveSession) serverParsed(op serveOp, pr *service.PlanResponse) bool {
	key := fmt.Sprintf("%d|%t|%s", pr.Generation, op.star, op.query)
	if s.memo[key] {
		return false
	}
	if pr.CacheHit {
		s.memo[key] = true
	}
	return true
}

// splitDelays renders where requests' time went: generator lag (due to
// sent), queueing for a connection (sent to start) and the round trip.
func splitDelays(res []reqResult) string {
	var lag, wait, rt []float64
	for _, r := range res {
		lag = append(lag, float64(r.sent.Sub(r.due))/float64(time.Millisecond))
		wait = append(wait, float64(r.start.Sub(r.sent))/float64(time.Millisecond))
		rt = append(rt, float64(r.done.Sub(r.start))/float64(time.Millisecond))
	}
	return fmt.Sprintf("lag_ms p50=%.3g p99=%.3g wait_ms p50=%.3g p99=%.3g roundtrip_ms p50=%.3g p99=%.3g",
		median(lag), percentile(lag, 99), median(wait), percentile(wait, 99), median(rt), percentile(rt, 99))
}

// generatorLagP99 is how late the generator sent requests, p99 in ms.
func generatorLagP99(res []reqResult) float64 {
	lag := make([]float64, len(res))
	for i, r := range res {
		lag[i] = float64(r.sent.Sub(r.due)) / float64(time.Millisecond)
	}
	return percentile(lag, 99)
}

// traced is serve_mixed's traced run: an open-loop pass at the nominal
// rate for the generator's lag, then two closed-loop passes on one
// connection — the first for reference, the second reading the
// handler's wall time and, for each request whose query text the server
// parsed, replaying that parse under a benchmark-owned span. One
// connection, because concurrent requests count each other's
// containment work through obs.Global. The service traces every request
// itself and returns the snapshot with the response, which is where the
// planner's phases come from.
func (s *serveSession) traced(cfg config, rep *report) error {
	third := time.Duration(cfg.seconds * float64(time.Second) / 3)
	ops := s.gen.take(int(serveNominalRate * third.Seconds()))
	res := openLoop(s.client, s.world.url, ops, serveNominalRate, serveConns)
	s.check(rep, ops, res)
	rep.metrics["bench.generator_lag_ms"] = generatorLagP99(res)

	one := newServeClient(1)
	defer one.CloseIdleConnections()
	_, ures, _, _ := s.closedPass(rep, one, third, nil)
	untraced := roundTripsMs(ures)

	acc := newLayerAcc()
	var plans, parses, mutations int
	var planNs, handlerNs, rtNs, parseNs, mutRtNs, mutHandlerNs int64
	var mix serveMix
	handler := make(map[int]int64)
	tops, tres, decoded, parsed := s.closedPass(rep, one, third, func(i int) { handler[i] = s.world.handlerNs.Load() })
	traced := roundTripsMs(tres)
	var spans []serveSpan
	for i, op := range tops {
		if tres[i].err != nil {
			continue
		}
		mix.add(op.kind, handler[i])
		sp := serveSpan{Path: op.path, Star: op.star, RoundTripNs: int64(tres[i].done.Sub(tres[i].start)), HandlerNs: handler[i]}
		if op.kind == opAdd || op.kind == opRemove {
			mutations++
			mutRtNs += sp.RoundTripNs
			mutHandlerNs += sp.HandlerNs
			spans = append(spans, sp)
			continue
		}
		pr := decoded[i]
		if pr == nil {
			continue
		}
		if parsed[i] {
			t := time.Now()
			if _, err := viewplan.ParseQuery(op.query); err != nil {
				return err
			}
			sp.ParseNs = int64(time.Since(t))
			parses++
		}
		sp.PlanNs, sp.CacheHit = pr.LatencyNanos, pr.CacheHit
		spans = append(spans, sp)
		plans++
		parseNs += sp.ParseNs
		planNs += sp.PlanNs
		handlerNs += sp.HandlerNs
		rtNs += sp.RoundTripNs
		acc.add(pr.Stats, time.Duration(pr.LatencyNanos))
	}
	if plans == 0 {
		return fmt.Errorf("serve_mixed: the traced pass answered no /plan request")
	}
	per := func(ns int64, n int, unit time.Duration) float64 { return float64(ns) / float64(n) / float64(unit) }
	ms, us := time.Millisecond, time.Microsecond
	m := rep.metrics
	m["cq.parse_us"] = per(parseNs, plans, us)
	m["corecover.ms"] = acc.perOp(acc.total["corecover"], ms)
	acc.plannerLayers(rep)
	acc.ratioMetric(rep, "corecover.plan_cache_hit_ratio", "plan_cache_hits", "plan_cache_misses", false,
		"no request consulted the plan cache")
	m["corecover.plan_cache_evictions"] = acc.count("plan_cache_evictions")
	m["corecover.catalog_compile_ms"] = float64(s.world.compile) / float64(ms)
	if mutations > 0 {
		m["corecover.catalog_swap_ms"] = per(mutHandlerNs, mutations, ms)
		m["service.mutation_ms"] = per(mutRtNs, mutations, ms)
	} else {
		rep.zeroBecause("the traced pass was too short to reach a catalog mutation",
			"corecover.catalog_swap_ms", "service.mutation_ms")
	}
	m["service.plan_ms"] = per(planNs, plans, ms)
	m["service.handler_us"] = per(handlerNs, plans, us)
	m["service.codec_us"] = per(handlerNs-planNs, plans, us)
	m["service.transport_us"] = per(rtNs-handlerNs, plans, us)
	m["bench.unattributed_ms"] = acc.unattributedNs() / float64(ms)
	m["bench.trace_overhead_pct"] = (median(traced) - median(untraced)) / median(untraced) * 100
	rep.zeroBecause("the service only generates rewritings; it never costs, optimizes or executes a plan",
		"cost.optimizer_ms", "cost.m2_self_ms", "cost.opt_states", "cost.filter_selection_ms", "cost.filter_yield",
		"cost.execute_ms", "cost.peak_resident_rows", "cost.execute_peak_rows_nocache",
		"engine.join_ms", "engine.join_steps", "engine.join_rows", "engine.probe_rows", "engine.ir_cache_hit_ratio")
	rep.zeroBecause("the service holds no database; there are no rows to load or views to materialize",
		"engine.load_s", "engine.materialize_s")

	layers := acc.layerSelf()
	layers["service.transport"] = m["service.transport_us"] / 1000
	layers["service.codec"] = m["service.codec_us"] / 1000
	rep.notef("traced plans=%d parsed_by_server=%d mutations=%d untraced_ops=%d traced_p50_ms=%.4g untraced_p50_ms=%.4g",
		plans, parses, mutations, len(untraced), median(traced), median(untraced))
	rep.notef("mix share of requests / of server (handler) time: %s", mix)
	rep.notef("layer self ms per /plan: %s unattributed=%.4g", formatLayers(layers), m["bench.unattributed_ms"])
	return writeJSONFile(cfg.spansPath, spans)
}

// serveMix tallies the traced pass's requests and handler time by
// request class, to show what each share of the mix costs the server.
type serveMix struct {
	n  [opRemove + 1]int
	ns [opRemove + 1]int64
}

func (m *serveMix) add(k opKind, handlerNs int64) {
	m.n[k]++
	m.ns[k] += handlerNs
}

func (m serveMix) String() string {
	var n int
	var ns int64
	for k := range m.n {
		n += m.n[k]
		ns += m.ns[k]
	}
	var parts []string
	for k, name := range []string{"hot", "cold", "star", "add", "remove"} {
		parts = append(parts, fmt.Sprintf("%s %.1f%%/%.1f%%", name,
			100*float64(m.n[k])/float64(n), 100*float64(m.ns[k])/float64(ns)))
	}
	return strings.Join(parts, " ")
}

// serveSpan is one traced request's benchmark-owned spans: the client's
// round trip, the handler's wall time inside it, the planner's latency
// inside that, and, when the server parsed the query text, the
// benchmark's own parse of it.
type serveSpan struct {
	Path        string `json:"path"`
	Star        bool   `json:"star,omitempty"`
	CacheHit    bool   `json:"cache_hit,omitempty"`
	RoundTripNs int64  `json:"roundtrip_ns"`
	HandlerNs   int64  `json:"handler_ns"`
	PlanNs      int64  `json:"plan_ns,omitempty"`
	ParseNs     int64  `json:"parse_ns,omitempty"`
}

// roundTripsMs returns the round trip of each successful request, in ms.
func roundTripsMs(res []reqResult) []float64 {
	var out []float64
	for _, r := range res {
		if r.err == nil {
			out = append(out, float64(r.done.Sub(r.start))/float64(time.Millisecond))
		}
	}
	return out
}

// closedPass sends requests of the sequence one after another on c for
// dur, calling after (when set) once each response is read, and checks
// every response. It returns the ops, their results, the decoded /plan
// responses and whether the server parsed each one's query text.
func (s *serveSession) closedPass(rep *report, c *http.Client, dur time.Duration, after func(i int)) ([]serveOp, []reqResult, []*service.PlanResponse, []bool) {
	var ops []serveOp
	var res []reqResult
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		op := s.gen.next()
		r := reqResult{start: time.Now()}
		r.body, r.err = post(c, s.world.url, op)
		r.done = time.Now()
		r.due, r.sent = r.start, r.start
		if after != nil {
			after(i)
		}
		ops, res = append(ops, op), append(res, r)
	}
	plans, parsed := s.check(rep, ops, res)
	return ops, res, plans, parsed
}
