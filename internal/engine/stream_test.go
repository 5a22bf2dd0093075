package engine

import (
	"testing"
	"testing/quick"

	"viewplan/internal/cq"
)

// relIdentical is the byte-identity check of DESIGN §16: same name,
// arity, row count, and flat interned storage — which pins the
// insertion order, not just the row set.
func relIdentical(a, b *Relation) bool {
	if a.Name != b.Name || a.Arity != b.Arity || a.n != b.n || len(a.data) != len(b.data) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

func evalBothWays(t *testing.T, db *Database, q *cq.Query) {
	t.Helper()
	want, err := db.Evaluate(q)
	if err != nil {
		t.Fatalf("Evaluate(%s): %v", q, err)
	}
	got, _, err := db.EvaluateStream(q)
	if err != nil {
		t.Fatalf("EvaluateStream(%s): %v", q, err)
	}
	if !relIdentical(want, got) {
		t.Fatalf("streaming result differs for %s:\nmaterialized %v\nstreaming    %v", q, want.SortedRows(), got.SortedRows())
	}
}

// Streaming evaluation is byte-identical to the materialized path on
// random databases and queries (duplicate atoms, repeated variables,
// constants, partial heads).
func TestQuickEvaluateStreamMatchesEvaluate(t *testing.T) {
	f := func(seed int64) bool {
		db, q := randomDBAndQuery(absSeed(seed))
		want, err := db.Evaluate(q)
		if err != nil {
			return false
		}
		got, _, err := db.EvaluateStream(q)
		return err == nil && relIdentical(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Directed cases the random generator is unlikely to hit: wide join
// keys (>2 shared variables), comparisons, never-interned constants,
// head constants, cross products, and unknown predicates.
func TestEvaluateStreamDirected(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts(`
		e(a, b, x, m). e(b, c, y, m). e(c, a, z, n). e(a, b, y, n).
		f(a, b, x, q1). f(b, c, y, q2). f(a, b, y, q3). f(c, c, z, q4).
		g(a). g(b). g(m).
		h(a, a). h(a, b). h(b, b).
		num(1, one). num(2, two). num(3, three).
	`); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"q(A, E) :- e(A, B, C, D), f(A, B, C, E)",      // wide (3-col) join key
		"q(A, B) :- e(A, B, C, D), f(A, B, C2, E)",     // 2-col key, new cols both sides
		"q(X) :- g(X), h(X, X)",                        // repeated var on right
		"q(X, Y) :- g(X), h(Y, Y)",                     // cross product first join
		"q(X) :- h(X, b)",                              // constant in scan
		"q(X) :- g(X), h(X, zzz)",                      // never-interned constant
		"q(X, k) :- g(X), h(X, X)",                     // head constant
		"q(X) :- g(X), ghost(X)",                       // unknown predicate
		"q(N, W) :- num(N, W), num(N2, W2), N < N2",    // comparisons
		"q(W) :- num(N, W), N >= 2",                    // comparison vs constant
		"q(A, D) :- e(A, B, C, D), e(B, C2, C3, D)",    // self join
		"q(A) :- e(A, B, C, D), f(A, B2, C2, E), g(A)", // 3-step chain
	} {
		evalBothWays(t, db, cq.MustParseQuery(src))
	}
}

// A projected pipeline (the M3 supplementary-relation drops) drains to
// the same relation as the materialized JoinStep chain with retains.
func TestStreamPipelineRetainsMatchJoinSteps(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts(`
		e(a, b). e(b, c). e(c, d). e(a, c). e(d, a).
		f(b, x). f(c, y). f(c, x). f(a, y). f(d, z).
	`); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X, Z) :- e(X, Y), f(Y, Z), e(Z2, X)")
	order := []int{0, 1, 2}
	retains := [][]cq.Var{
		{"X", "Y"},
		{"X", "Z"},
		{"X", "Z"},
	}
	cur := UnitVarRelation()
	for k, idx := range order {
		next, err := db.JoinStep(cur, q.Body[idx], retains[k])
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	it, err := db.BuildJoinPipeline(q.Body, order, retains)
	if err != nil {
		t.Fatal(err)
	}
	got, stats := db.DrainStream("ir", len(cur.Schema), it, false)
	if got.Size() != cur.Size() {
		t.Fatalf("drained %d rows, materialized %d", got.Size(), cur.Size())
	}
	for i := 0; i < cur.n; i++ {
		crow, grow := cur.irow(i), got.irow(i)
		for j := range crow {
			if crow[j] != grow[j] {
				t.Fatalf("row %d differs: %v vs %v", i, grow, crow)
			}
		}
	}
	if stats.Rows != got.Size() {
		t.Fatalf("stats.Rows = %d, want %d", stats.Rows, got.Size())
	}
	if stats.RawRows < int64(got.Size()) {
		t.Fatalf("RawRows %d < result rows %d", stats.RawRows, got.Size())
	}
	if stats.PeakResidentRows != int64(got.Size()) {
		t.Fatalf("PeakResidentRows = %d, want the result size %d", stats.PeakResidentRows, got.Size())
	}
}
