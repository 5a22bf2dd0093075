// Command perfbench is viewplan's end-to-end benchmark. It drives the
// user paths from outside through their public entry points —
// viewplan.PlanQuery from query text, and service.Server.Handler() over
// loopback HTTP — prints every end-to-end metric by name with its unit,
// checks every output against an oracle, and, in a separate traced run,
// splits each operation into the repository's modules (cq, containment,
// corecover, cost, engine, service).
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload m2_star --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with tracing off; with --trace 1 they are
// the per-layer ones. Lines before it record the environment, sample
// counts and, in traced runs, why a per-layer metric reads zero.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is stamped by run.sh from the checkout's git HEAD, when there
// is one.
var commit = "unknown"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. They mirror BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"setup_heap_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops", "ops/s"},
	{"allocs_per_op", "allocs"},
}

// perLayer are the per-operation values of the traced run, grouped by
// the module they measure. They mirror BENCHMARK.json.
var perLayer = []metricDef{
	{"cq.parse_us", "us"},
	{"containment.hom_searches", "count"},
	{"containment.hom_backtracks", "count"},
	{"containment.hom_cache_hit_ratio", "ratio"},
	{"corecover.ms", "ms"},
	{"corecover.minimize_ms", "ms"},
	{"corecover.view_grouping_ms", "ms"},
	{"corecover.view_tuples_ms", "ms"},
	{"corecover.tuple_cores_ms", "ms"},
	{"corecover.cover_search_ms", "ms"},
	{"corecover.verify_ms", "ms"},
	{"corecover.cover_nodes", "count"},
	{"corecover.rewritings", "count"},
	{"corecover.verify_yield", "ratio"},
	{"corecover.plan_cache_hit_ratio", "ratio"},
	{"corecover.plan_cache_evictions", "count"},
	{"corecover.catalog_compile_ms", "ms"},
	{"corecover.catalog_swap_ms", "ms"},
	{"cost.optimizer_ms", "ms"},
	{"cost.m2_self_ms", "ms"},
	{"cost.opt_states", "count"},
	{"cost.filter_selection_ms", "ms"},
	{"cost.filter_yield", "ratio"},
	{"cost.execute_ms", "ms"},
	{"cost.peak_resident_rows", "rows"},
	{"cost.execute_peak_rows_nocache", "rows"},
	{"engine.join_ms", "ms"},
	{"engine.join_steps", "count"},
	{"engine.join_rows", "rows"},
	{"engine.probe_rows", "rows"},
	{"engine.ir_cache_hit_ratio", "ratio"},
	{"engine.load_s", "s"},
	{"engine.materialize_s", "s"},
	{"service.plan_ms", "ms"},
	{"service.handler_us", "us"},
	{"service.codec_us", "us"},
	{"service.transport_us", "us"},
	{"service.mutation_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_ms", "ms"},
	{"bench.generator_lag_ms", "ms"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spansPath receives the traced run's captured spans.
	spansPath string
}

// report is what a workload run hands back: operation counts, metric
// values by name, and notes printed before the result line.
type report struct {
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string
	// zero explains, per metric name, why a per-layer metric reads zero
	// on this workload.
	zero map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, zero: map[string]string{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// zeroBecause records a metric that reads zero on this workload, with
// the reason.
func (r *report) zeroBecause(reason string, names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
		r.zero[n] = reason
	}
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(config) (*report, error){
	"m2_star":     runM2Star,
	"exec_chain":  runExecChain,
	"serve_mixed": runServeMixed,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: m2_star, exec_chain or serve_mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*name]; !ok {
		return config{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return config{}, fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	return config{
		workload:  *name,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		spansPath: fmt.Sprintf(".bench_build/spans-%s-%d.json", *name, *seed),
	}, nil
}

func run(cfg config) error {
	env, err := environment()
	if err != nil {
		return err
	}
	fmt.Println("env", env)
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		if !cfg.trace && v <= 0 {
			return fmt.Errorf("%s: end-to-end metric %s read %v", cfg.workload, d.name, v)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if rep.attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", cfg.workload)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, d := range defs {
		fmt.Printf("metric %-34s %14.6g %s\n", d.name, rep.metrics[d.name], d.unit)
	}
	var zeros []string
	for _, d := range defs {
		if rep.metrics[d.name] == 0 {
			zeros = append(zeros, d.name)
		}
	}
	sort.Strings(zeros)
	for _, n := range zeros {
		why := rep.zero[n]
		if why == "" {
			why = "no reason recorded"
		}
		fmt.Printf("zero %s: %s\n", n, why)
	}
	fmt.Printf("operations attempted=%d failed=%d\n", rep.attempted, rep.failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment records what wall times depend on, so that they are only
// compared within one environment.
func environment() (string, error) {
	digest, err := sourceDigest()
	if err != nil {
		return "", err
	}
	env := map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": digest,
		"started":       time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.Marshal(env)
	return string(b), err
}

// sourceDigest hashes the module sources of the checkout the benchmark
// runs in (every go.mod and .go file outside hidden directories). It
// identifies the measured code where no git commit is available.
func sourceDigest() (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
