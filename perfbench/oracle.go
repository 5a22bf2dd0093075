package main

import (
	"fmt"
	"strings"

	"viewplan"
)

// answerKey renders a relation's rows, sorted, one per line: two
// answers are equal as sets exactly when their keys are equal.
func answerKey(r *viewplan.Relation) string {
	if r == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, t := range r.SortedRows() {
		for i, v := range t {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(string(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// rowsInOrder renders a relation's rows in storage order, for checks
// that two runs produced byte-identical relations.
func rowsInOrder(r *viewplan.Relation) string {
	if r == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, t := range r.Rows() {
		fmt.Fprintln(&b, t)
	}
	return b.String()
}

// oracle checks PlanQuery answers for one query: the answer must equal
// direct evaluation of the query over the base relations, and the
// rewriting must be an equivalent rewriting over the views.
type oracle struct {
	q   *viewplan.Query
	vs  *viewplan.ViewSet
	ref string
	// equivalent memoizes rewritings already proven equivalent, by text.
	equivalent map[string]bool
}

// newOracle evaluates the reference answer. It runs at set-up, outside
// every timed region.
func newOracle(db *viewplan.Database, text string, vs *viewplan.ViewSet) (*oracle, error) {
	q, err := viewplan.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	ref, err := db.Evaluate(q)
	if err != nil {
		return nil, fmt.Errorf("reference evaluation of %s: %w", text, err)
	}
	return &oracle{q: q, vs: vs, ref: answerKey(ref), equivalent: map[string]bool{}}, nil
}

// check returns nil when res is a correct answer to the oracle's query.
func (o *oracle) check(res *viewplan.PlanResult) error {
	if res == nil || res.Rewriting == nil {
		return fmt.Errorf("no plan for %s", o.q)
	}
	if got := answerKey(res.Answer); got != o.ref {
		return fmt.Errorf("answer for %s differs from direct evaluation (%d bytes vs %d)", o.q, len(got), len(o.ref))
	}
	key := res.Rewriting.String()
	if !o.equivalent[key] {
		if !viewplan.IsEquivalentRewriting(res.Rewriting, o.q, o.vs) {
			return fmt.Errorf("rewriting %s is not equivalent to %s", key, o.q)
		}
		o.equivalent[key] = true
	}
	return nil
}
