package viewplan

import (
	"testing"

	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/engine"
	"viewplan/internal/workload"
)

// execCorpus is the 200-instance seeded chain/star corpus the planner
// differential harnesses run on (corecover/differential_test.go uses
// the same recipe), here with data materialized so plans can execute.
func execCorpus(t *testing.T) []*workload.Instance {
	t.Helper()
	var out []*workload.Instance
	for _, shape := range []workload.Shape{workload.Star, workload.Chain} {
		for i := 0; i < 100; i++ {
			inst, err := workload.Generate(workload.Config{
				Shape:            shape,
				QuerySubgoals:    4 + i%3,
				NumViews:         6 + i%7,
				Nondistinguished: i % 2,
				Seed:             int64(1000*int(shape) + i),
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, inst)
		}
	}
	return out
}

func tuplesIdentical(t *testing.T, label string, a, b *Relation) {
	t.Helper()
	if a.Name != b.Name || a.Arity != b.Arity || a.Size() != b.Size() {
		t.Fatalf("%s: relation shape differs: %s/%d/%d vs %s/%d/%d",
			label, a.Name, a.Arity, a.Size(), b.Name, b.Arity, b.Size())
	}
	ar, br := a.Rows(), b.Rows()
	for i := range ar {
		for j := range ar[i] {
			if ar[i][j] != br[i][j] {
				t.Fatalf("%s: row %d differs: %v vs %v", label, i, ar[i], br[i])
			}
		}
	}
}

// TestDifferentialStreamingExecution is the full-corpus gate of DESIGN
// §16: for every instance in the 200-instance corpus, under every
// planning configuration (sequential and parallel rewriting generation,
// unsharded and sharded cover search), the streaming executions of the
// chosen M2 and M3 plans are byte-identical — same insertion order, not
// just the same set — to the materialized replay.
func TestDifferentialStreamingExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential harness")
	}
	corpus := execCorpus(t)
	executed := 0
	for ci, inst := range corpus {
		var db *Database
		var plans []*Plan
		for _, par := range []int{1, 8} {
			for _, shards := range []int{0, 4} {
				res, err := corecover.CoreCoverStar(inst.Query, inst.Views, corecover.Options{
					MaxRewritings: 3,
					Parallelism:   par,
					CoverShards:   shards,
				})
				if err != nil {
					t.Fatalf("instance %d: %v", ci, err)
				}
				if len(res.Rewritings) == 0 {
					continue
				}
				if db == nil {
					db = NewDatabase()
					gen := engine.NewDataGen(int64(1000+ci), 6)
					gen.FillForQuery(db, inst.Query, 12)
					if err := db.MaterializeViews(inst.Views); err != nil {
						t.Fatalf("instance %d: %v", ci, err)
					}
					for _, p := range res.Rewritings {
						if len(p.Body) > 4 {
							continue
						}
						m2, err := cost.BestPlanM2(db, p)
						if err != nil {
							t.Fatalf("instance %d: BestPlanM2: %v", ci, err)
						}
						m3, err := cost.BestPlanM3(db, p, RenamingHeuristic, inst.Query, inst.Views)
						if err != nil {
							t.Fatalf("instance %d: BestPlanM3: %v", ci, err)
						}
						plans = append(plans, m2, m3)
					}
				}
				// The planner configuration must not leak into execution:
				// the same plans execute identically regardless of how the
				// rewriting search was parallelized or sharded.
				for pi, plan := range plans {
					want, _, err := ExecutePlan(db, plan, ExecOptions{})
					if err != nil {
						t.Fatalf("instance %d plan %d: materialized: %v", ci, pi, err)
					}
					got, _, err := ExecutePlan(db, plan, ExecOptions{StreamExec: true})
					if err != nil {
						t.Fatalf("instance %d plan %d: streaming: %v", ci, pi, err)
					}
					tuplesIdentical(t, inst.Query.String(), want, got)
					executed++
				}
			}
		}
	}
	if executed == 0 {
		t.Fatal("differential corpus executed no plans")
	}
	t.Logf("differential harness: %d streaming executions byte-identical", executed)
}

// PlanQuery attaches an IR cache for its cost search, and its streaming
// execution must not pay for it: on the high-cardinality chain, with the
// views the end-to-end benchmark plans against, the peak resident rows
// PlanQuery reports equal those of a cache-less ExecutePlan of the same
// plan, and the answers are byte-identical.
func TestPlanQueryStreamPeakMatchesCachelessExecution(t *testing.T) {
	db := NewDatabase()
	q, err := workload.ExecChain(db, workload.ExecConfig{Keys: 5000})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := ParseViews(`
		v12(X0, X1, X2) :- e1(X0, X1), e2(X1, X2).
		v23(X1, X2, X3) :- e2(X1, X2), e3(X2, X3).
		v1(X0, X1) :- e1(X0, X1).
		v3(X2, X3) :- e3(X2, X3).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}
	res, err := PlanQuery(db, q, vs, PlanRequest{Model: M2, StreamExec: true})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.ExecStats == nil {
		t.Fatal("PlanQuery returned no executed plan")
	}
	if db.IRCache() != nil {
		t.Fatal("PlanQuery left its IR cache attached")
	}
	want, floor, err := ExecutePlan(db, res.Plan, ExecOptions{StreamExec: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ExecStats.PeakResidentRows; got != floor.PeakResidentRows {
		t.Fatalf("PlanQuery streaming peak %d rows, cache-less execution %d", got, floor.PeakResidentRows)
	}
	tuplesIdentical(t, "PlanQuery vs cache-less ExecutePlan", want, res.Answer)
}
