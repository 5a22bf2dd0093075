// Command benchexec measures plan execution — the materialized JoinStep
// replay versus the streaming iterator path — on a high-cardinality
// chain workload whose intermediate join results dwarf the final answer
// (workload.ExecChain), and writes
// BENCH_exec.json with wall-clock, allocations, and peak resident rows
// per strategy.
//
// The run self-gates on the ratios the streaming executor exists for:
// the materialized peak must exceed the answer by at least 100×
// (otherwise the workload is not exercising the interesting regime),
// and streaming must keep at least 5× fewer resident rows than the
// materialized replay. Results are checked byte-identical across
// strategies before anything is measured.
//
// With -check, the freshly measured numbers are also compared against
// the checked-in report: peak resident rows must match exactly (they
// are deterministic for the fixed workload), allocations within 10%,
// wall-clock informational only — the same regression-gate contract as
// scripts/bench_engine.sh.
//
// Usage:
//
//	benchexec                      # measure, gate, write BENCH_exec.json
//	benchexec -check               # additionally diff against the checked-in report
//	benchexec -keys 300000         # bigger workload, no file written unless -out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"viewplan/internal/cost"
	"viewplan/internal/engine"
	"viewplan/internal/workload"
)

type point struct {
	Strategy    string `json:"strategy"`
	WallNanos   int64  `json:"wall_ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	PeakRows    int64  `json:"peak_resident_rows"`
	Rows        int    `json:"rows"`
	RawRows     int64  `json:"raw_rows"`
}

type report struct {
	Description string  `json:"description"`
	Command     string  `json:"command"`
	Keys        int     `json:"keys"`
	FanOut      int     `json:"fanout"`
	Heads       int     `json:"heads"`
	Iters       int     `json:"iters_per_point"`
	Cores       int     `json:"cores"`
	Blowup      int64   `json:"materialized_blowup"`
	PeakRatio   int64   `json:"stream_peak_ratio"`
	Points      []point `json:"points"`
}

func main() {
	var (
		keys   = flag.Int("keys", 50000, "distinct join keys (first intermediate size)")
		fanout = flag.Int("fanout", 4, "e2 rows per key (second intermediate = keys*fanout)")
		heads  = flag.Int("heads", 8, "answer collapses onto at most heads^2 rows")
		iters  = flag.Int("iters", 3, "executions averaged per strategy")
		out    = flag.String("out", "BENCH_exec.json", "output report path (empty = don't write)")
		check  = flag.Bool("check", false, "diff against the existing report: exact peak rows, allocs within 10%")
	)
	flag.Parse()
	if err := run(*keys, *fanout, *heads, *iters, *out, *check); err != nil {
		fmt.Fprintln(os.Stderr, "benchexec:", err)
		os.Exit(1)
	}
}

func run(keys, fanout, heads, iters int, out string, check bool) error {
	if iters < 1 {
		return fmt.Errorf("iters must be >= 1")
	}
	db := engine.NewDatabase()
	buildStart := time.Now()
	q, err := workload.ExecChain(db, workload.ExecConfig{Keys: keys, FanOut: fanout, Heads: heads})
	if err != nil {
		return err
	}
	fmt.Printf("workload: chain keys=%d fanout=%d heads=%d built in %v\n",
		keys, fanout, heads, time.Since(buildStart).Round(time.Millisecond))
	// The chain order is the plan under test — identity order, no
	// optimizer run, so the cost simulation's own joins stay unmeasured.
	plan := &cost.Plan{Model: cost.M2, Rewriting: q}

	strategies := []struct {
		name string
		opts cost.ExecOptions
	}{
		{"materialized", cost.ExecOptions{}},
		{"streaming", cost.ExecOptions{StreamExec: true}},
	}

	// Identity witness first: every strategy must produce the
	// byte-identical answer before its numbers mean anything.
	var witness *engine.Relation
	for _, s := range strategies {
		rel, _, err := cost.ExecutePlan(db, plan, s.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if witness == nil {
			witness = rel
			continue
		}
		if err := requireIdentical(witness, rel); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}

	rep := report{
		Description: fmt.Sprintf(
			"Plan execution on the high-cardinality chain workload (intermediates keys and keys*fanout rows, answer <= heads^2): materialized JoinStep replay vs streaming iterators, %d runs averaged per strategy. Results are byte-identical across strategies; peak_resident_rows is deterministic and gated exactly, allocs within 10%%.",
			iters),
		Command: "go run ./cmd/benchexec",
		Keys:    keys, FanOut: fanout, Heads: heads,
		Iters: iters,
		Cores: runtime.NumCPU(),
	}

	byName := map[string]*point{}
	for _, s := range strategies {
		var stats cost.ExecStats
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, stats, err = cost.ExecutePlan(db, plan, s.opts); err != nil {
				return err
			}
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		p := point{
			Strategy:    s.name,
			WallNanos:   wall.Nanoseconds() / int64(iters),
			AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
			PeakRows:    stats.PeakResidentRows,
			Rows:        stats.Rows,
			RawRows:     stats.RawRows,
		}
		rep.Points = append(rep.Points, p)
		byName[s.name] = &rep.Points[len(rep.Points)-1]
		fmt.Printf("%-12s %10v/op %9d allocs/op  peak %8d rows  (answer %d)\n",
			s.name, time.Duration(p.WallNanos), p.AllocsPerOp, p.PeakRows, p.Rows)
	}

	mat, str := byName["materialized"], byName["streaming"]
	rep.Blowup = mat.PeakRows / int64(mat.Rows)
	rep.PeakRatio = mat.PeakRows / max64(str.PeakRows, 1)
	fmt.Printf("blowup %d× (gate ≥100), stream peak ratio %d× (gate ≥5)\n", rep.Blowup, rep.PeakRatio)
	if rep.Blowup < 100 {
		return fmt.Errorf("materialized intermediates exceed the answer only %d×, gate ≥100×", rep.Blowup)
	}
	if rep.PeakRatio < 5 {
		return fmt.Errorf("streaming peak only %d× below materialized, gate ≥5×", rep.PeakRatio)
	}

	if check {
		if err := diffReport(out, &rep); err != nil {
			return err
		}
		fmt.Println("check: OK against", out)
		return nil
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// diffReport enforces the regression contract against the checked-in
// report: identical workload shape, exact peak resident rows and row
// counts (deterministic), allocations within 10%; wall-clock is
// reported but never gated (CI machines are loaded).
func diffReport(path string, fresh *report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("no checked-in report to diff against: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if base.Keys != fresh.Keys || base.FanOut != fresh.FanOut || base.Heads != fresh.Heads {
		return fmt.Errorf("workload shape changed (baseline keys=%d fanout=%d heads=%d); rerun scripts/bench_exec.sh -update",
			base.Keys, base.FanOut, base.Heads)
	}
	basePts := map[string]point{}
	for _, p := range base.Points {
		basePts[p.Strategy] = p
	}
	for _, p := range fresh.Points {
		b, ok := basePts[p.Strategy]
		if !ok {
			return fmt.Errorf("%s: missing from the checked-in report; rerun scripts/bench_exec.sh -update", p.Strategy)
		}
		if p.PeakRows != b.PeakRows || p.Rows != b.Rows || p.RawRows != b.RawRows {
			return fmt.Errorf("%s: peak/rows changed: got peak=%d rows=%d raw=%d, baseline peak=%d rows=%d raw=%d (deterministic — a real behavior change; rerun scripts/bench_exec.sh -update if intended)",
				p.Strategy, p.PeakRows, p.Rows, p.RawRows, b.PeakRows, b.Rows, b.RawRows)
		}
		limit := b.AllocsPerOp + b.AllocsPerOp/10
		if p.AllocsPerOp > limit {
			return fmt.Errorf("%s: %d allocs/op regressed >10%% over baseline %d",
				p.Strategy, p.AllocsPerOp, b.AllocsPerOp)
		}
		fmt.Printf("%-12s peak %d rows (exact match), %d allocs/op (baseline %d, limit %d), wall %v (baseline %v, informational)\n",
			p.Strategy, p.PeakRows, p.AllocsPerOp, b.AllocsPerOp, limit,
			time.Duration(p.WallNanos), time.Duration(b.WallNanos))
	}
	return nil
}

func requireIdentical(a, b *engine.Relation) error {
	if a.Arity != b.Arity || a.Size() != b.Size() {
		return fmt.Errorf("answer shape differs: %d×%d vs %d×%d", a.Size(), a.Arity, b.Size(), b.Arity)
	}
	ar, br := a.Rows(), b.Rows()
	for i := range ar {
		for j := range ar[i] {
			if ar[i][j] != br[i][j] {
				return fmt.Errorf("answer row %d differs: %v vs %v", i, ar[i], br[i])
			}
		}
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
