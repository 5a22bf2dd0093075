// Plan execution: running an optimizer-chosen physical plan to produce
// its answer relation, either by replaying the materialized JoinStep
// chain the cost simulation measured, or through the engine's streaming
// iterator path (ExecOptions.StreamExec). Both produce byte-identical
// relations — same interner ids, same insertion order — which the
// full-corpus differential harness in exec_differential_test.go pins.
package cost

import (
	"fmt"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
)

// ExecOptions selects the execution strategy for ExecutePlan.
type ExecOptions struct {
	// StreamExec executes through the engine's lazy iterator path: no
	// intermediate relation is materialized and the ordered drain at
	// the root keeps the result byte-identical to the materialized
	// replay. Off by default, so the materialized kernel and its
	// allocation baselines are untouched.
	StreamExec bool
}

// ExecStats reports one plan execution's work.
type ExecStats struct {
	// Rows is the size of the answer relation.
	Rows int
	// RawRows is the number of rows the streaming path pulled at the
	// root before set-semantics dedup (zero for materialized runs,
	// whose dedup happens inside every join step).
	RawRows int64
	// PeakResidentRows is the peak number of execution-owned resident
	// rows: for materialized runs the largest adjacent intermediate
	// pair (IR_{i-1} feeds the join producing IR_i, so both are live),
	// for streaming runs the result size, since no streaming operator
	// holds rows. An attached IR cache changes neither.
	PeakResidentRows int64
}

// execPeakHist mirrors the engine's joinRowsHist pattern: materialized
// executions observe their peak residency into the process registry
// with a few atomic adds and no allocation. (Streaming drains observe
// theirs inside engine.DrainStream.)
var execPeakHist = obs.Process.Histogram(obs.HistPeakResident)

// ExecutePlan runs a plan produced by PlanM2/BestPlanM2/PlanM3/
// BestPlanM3 over the database that costed it and returns the answer
// relation named after the rewriting's head. Neither path reads the IR
// cache. The result relation does not bump the database generation, so
// executing one candidate does not invalidate intermediates the IR
// cache holds for the next.
func ExecutePlan(db *engine.Database, p *Plan, opts ExecOptions) (*engine.Relation, ExecStats, error) {
	if p == nil || p.Rewriting == nil {
		return nil, ExecStats{}, fmt.Errorf("cost: nil plan")
	}
	q := p.Rewriting
	n := len(q.Body)
	order := p.Order
	if order == nil {
		order = identityOrder(n)
	}
	if err := validOrder(order, n); err != nil {
		return nil, ExecStats{}, err
	}
	if opts.StreamExec {
		return executeStreaming(db, p, q, order)
	}
	return executeMaterialized(db, p, q, order)
}

// stepRetains returns the per-step projection lists for replay: M3
// plans recorded the exact keep list each JoinStep projected onto; M2
// plans retain everything (nil means no projection).
func stepRetains(p *Plan, order []int) [][]cq.Var {
	if p.Model != M3 || len(p.Steps) != len(order) {
		return nil
	}
	retains := make([][]cq.Var, len(order))
	for k := range p.Steps {
		retains[k] = p.Steps[k].Retained
	}
	return retains
}

// executeMaterialized replays the plan's JoinStep chain exactly as the
// cost simulation ran it — same order, same per-step projections — then
// filters and projects the head. It deliberately bypasses the IR cache:
// cached intermediates may have been materialized under a different
// join order, and while their row sets are equal their insertion order
// is not, which would break byte-identity with the streaming path.
func executeMaterialized(db *engine.Database, p *Plan, q *cq.Query, order []int) (*engine.Relation, ExecStats, error) {
	retains := stepRetains(p, order)
	var stats ExecStats
	cur := engine.UnitVarRelation()
	peak := int64(cur.Size())
	for k, idx := range order {
		var retain []cq.Var
		if retains != nil {
			retain = retains[k]
		}
		next, err := db.JoinStep(cur, q.Body[idx], retain)
		if err != nil {
			return nil, ExecStats{}, err
		}
		if r := int64(cur.Size()) + int64(next.Size()); r > peak {
			peak = r
		}
		cur = next
	}
	if q.HasComparisons() {
		filtered, err := engine.FilterComparisons(cur, q.Comparisons)
		if err != nil {
			return nil, ExecStats{}, err
		}
		if r := int64(cur.Size()) + int64(filtered.Size()); r > peak {
			peak = r
		}
		cur = filtered
	}
	out, err := db.ProjectHead(cur, q.Head, false)
	if err != nil {
		return nil, ExecStats{}, err
	}
	if r := int64(cur.Size()) + int64(out.Size()); r > peak {
		peak = r
	}
	stats.Rows = out.Size()
	stats.PeakResidentRows = peak
	execPeakHist.Observe(peak)
	return out, stats, nil
}

// executeStreaming composes the plan into a lazy pipeline — the same
// order and per-step projections as the replay — and drains it at the
// root.
func executeStreaming(db *engine.Database, p *Plan, q *cq.Query, order []int) (*engine.Relation, ExecStats, error) {
	it, err := db.BuildJoinPipeline(q.Body, order, stepRetains(p, order))
	if err != nil {
		return nil, ExecStats{}, err
	}
	if q.HasComparisons() {
		it, err = db.StreamFilter(it, q.Comparisons)
		if err != nil {
			return nil, ExecStats{}, err
		}
	}
	it, err = db.StreamHead(it, q.Head)
	if err != nil {
		return nil, ExecStats{}, err
	}
	out, sstats := db.DrainStream(q.Name(), q.Head.Arity(), it, false)
	return out, ExecStats{
		Rows:             sstats.Rows,
		RawRows:          sstats.RawRows,
		PeakResidentRows: sstats.PeakResidentRows,
	}, nil
}
