package cost

import (
	"testing"
	"testing/quick"

	"viewplan/internal/corecover"
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/views"
)

// rewritingsFor runs CoreCover and fails the test when the instance has
// no rewritings (Example 6.1 always does).
func rewritingsFor(t *testing.T, q *cq.Query, vs *views.Set) []*cq.Query {
	t.Helper()
	res, err := corecover.CoreCoverStar(q, vs, corecover.Options{MaxRewritings: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritings) == 0 {
		t.Fatal("no rewritings")
	}
	return res.Rewritings
}

// rowsIdentical pins insertion order, not just the row set: both
// relations decode through the same interner, so equal value sequences
// imply equal interned storage.
func rowsIdentical(a, b *engine.Relation) bool {
	if a.Name != b.Name || a.Arity != b.Arity || a.Size() != b.Size() {
		return false
	}
	ar, br := a.Rows(), b.Rows()
	for i := range ar {
		for j := range ar[i] {
			if ar[i][j] != br[i][j] {
				return false
			}
		}
	}
	return true
}

// execAllWays runs one plan through both execution strategies and
// checks byte-identity against the materialized replay.
func execAllWays(t *testing.T, db *engine.Database, p *Plan) *engine.Relation {
	t.Helper()
	want, wstats, err := ExecutePlan(db, p, ExecOptions{})
	if err != nil {
		t.Fatalf("ExecutePlan(materialized, %v): %v", p.Rewriting, err)
	}
	if wstats.Rows != want.Size() {
		t.Fatalf("materialized stats.Rows = %d, want %d", wstats.Rows, want.Size())
	}
	got, stats, err := ExecutePlan(db, p, ExecOptions{StreamExec: true})
	if err != nil {
		t.Fatalf("ExecutePlan(streaming, %v): %v", p.Rewriting, err)
	}
	if !rowsIdentical(want, got) {
		t.Fatalf("streaming result differs for %v:\nmaterialized %v\nstreaming    %v",
			p.Rewriting, want.SortedRows(), got.SortedRows())
	}
	if stats.Rows != got.Size() || stats.RawRows < int64(got.Size()) {
		t.Fatalf("streaming stats = %+v for %d rows", stats, got.Size())
	}
	return want
}

// Both execution strategies produce the byte-identical relation on
// random M2 and M3 plans over random chain instances, with and without
// an IR cache attached; attaching the cache moves neither the rows nor
// the streaming peak.
func TestQuickExecutePlanAllPathsIdentical(t *testing.T) {
	f := func(seed int64) bool {
		db, p, q, vs, ok := costFixture(seed)
		if !ok {
			return true
		}
		m2, err := BestPlanM2(db, p)
		if err != nil {
			return false
		}
		m3, err := BestPlanM3(db, p, RenamingHeuristic, q, vs)
		if err != nil {
			return false
		}
		var base *engine.Relation
		for _, plan := range []*Plan{m2, m3} {
			db.SetIRCache(nil)
			base, _, err = ExecutePlan(db, plan, ExecOptions{})
			if err != nil {
				return false
			}
			_, floor, err := ExecutePlan(db, plan, ExecOptions{StreamExec: true})
			if err != nil || floor.PeakResidentRows != int64(base.Size()) {
				return false
			}
			for _, cached := range []bool{false, true} {
				if cached {
					db.SetIRCache(engine.NewIRCache())
				} else {
					db.SetIRCache(nil)
				}
				for _, opts := range []ExecOptions{{}, {StreamExec: true}} {
					// Twice per configuration so the second cached run
					// follows one that could have left state behind.
					for i := 0; i < 2; i++ {
						got, stats, err := ExecutePlan(db, plan, opts)
						if err != nil || !rowsIdentical(base, got) {
							return false
						}
						if opts.StreamExec && stats.PeakResidentRows != floor.PeakResidentRows {
							return false
						}
					}
				}
			}
		}
		db.SetIRCache(nil)
		// Executing candidates must agree with direct evaluation on the
		// row set (orders legitimately differ across join orders).
		re, err := db.Evaluate(p)
		if err != nil {
			return false
		}
		sa, sb := re.SortedRows(), base.SortedRows()
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			for j := range sa[i] {
				if sa[i][j] != sb[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Directed: the paper's Example 6.1 plans execute identically under all
// strategies, and M3's per-step Retained projections are honored.
func TestExecutePlanExample61(t *testing.T) {
	db, vs, q := example61(t)
	res := rewritingsFor(t, q, vs)
	for _, p := range res {
		m2, err := BestPlanM2(db, p)
		if err != nil {
			t.Fatal(err)
		}
		execAllWays(t, db, m2)
		m3, err := BestPlanM3(db, p, SupplementaryRelations, q, vs)
		if err != nil {
			t.Fatal(err)
		}
		out := execAllWays(t, db, m3)
		if out.Arity != q.Head.Arity() {
			t.Fatalf("result arity %d, want %d", out.Arity, q.Head.Arity())
		}
	}
}

// Peak residency accounting: the materialized path reports at least the
// largest intermediate, and the cache-less streaming path reports less
// on a plan whose intermediates exceed the final result.
func TestExecutePlanPeakResident(t *testing.T) {
	db, vs, q := example61(t)
	res := rewritingsFor(t, q, vs)
	db.SetIRCache(nil)
	for _, r := range res {
		p, err := BestPlanM2(db, r)
		if err != nil {
			t.Fatal(err)
		}
		out, mstats, err := ExecutePlan(db, p, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if mstats.PeakResidentRows < int64(out.Size()) {
			t.Fatalf("materialized peak %d < result %d", mstats.PeakResidentRows, out.Size())
		}
		_, sstats, err := ExecutePlan(db, p, ExecOptions{StreamExec: true})
		if err != nil {
			t.Fatal(err)
		}
		if sstats.PeakResidentRows <= 0 {
			t.Fatalf("streaming peak = %d", sstats.PeakResidentRows)
		}
		if sstats.PeakResidentRows > mstats.PeakResidentRows {
			t.Fatalf("streaming peak %d exceeds materialized peak %d",
				sstats.PeakResidentRows, mstats.PeakResidentRows)
		}
	}
}

// Nil and malformed plans error cleanly.
func TestExecutePlanErrors(t *testing.T) {
	db := engine.NewDatabase()
	if _, _, err := ExecutePlan(db, nil, ExecOptions{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, _, err := ExecutePlan(db, &Plan{}, ExecOptions{}); err == nil {
		t.Error("plan without rewriting accepted")
	}
}
