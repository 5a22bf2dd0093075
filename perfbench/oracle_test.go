package main

import (
	"encoding/json"
	"strings"
	"testing"

	"viewplan"
	"viewplan/internal/engine"
	"viewplan/internal/service"
)

func TestOracleRejectsCorruptedAnswer(t *testing.T) {
	vs, err := viewplan.ParseViews(`
		v1(X, Y) :- e(X, Y).
		v2(Y, Z) :- f(Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	db := viewplan.NewDatabase()
	if err := db.LoadFacts("e(a, b). e(c, d). e(g, h). f(b, x). f(d, y)."); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}
	const text = "q(X, Z) :- e(X, Y), f(Y, Z)"
	c := &planCase{name: "tiny", text: text, vs: vs, db: db,
		req: viewplan.PlanRequest{Model: viewplan.M2, Parallelism: 1, StreamExec: true}}
	if c.or, err = newOracle(db, text, vs); err != nil {
		t.Fatal(err)
	}
	res, err := planOnce(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.or.check(res); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}

	missing := engine.NewRelation("q", 2)
	missing.Insert(viewplan.Tuple{"a", "x"})
	extra := engine.NewRelation("q", 2)
	for _, row := range [][]viewplan.Const{{"a", "x"}, {"c", "y"}, {"g", "x"}} {
		extra.Insert(viewplan.Tuple(row))
	}
	for name, rel := range map[string]*viewplan.Relation{"missing row": missing, "extra row": extra, "no answer": nil} {
		bad := *res
		bad.Answer = rel
		if err := c.or.check(&bad); err == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
	bad := *res
	bad.Rewriting = viewplan.MustParseQuery("q(X, Z) :- v1(X, Y), v2(W, Z)")
	if err := c.or.check(&bad); err == nil || !strings.Contains(err.Error(), "not equivalent") {
		t.Errorf("non-equivalent rewriting accepted: %v", err)
	}
	if err := c.or.check(nil); err == nil {
		t.Error("missing plan accepted")
	}
}

func TestServeOracleRejectsCorruptedResponse(t *testing.T) {
	views, err := viewplan.ParseViews(`
		v1(X, Y) :- e(X, Y).
		v2(Y, Z) :- f(Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	in := &serveInputs{views: views, extraName: "v12", extra: "v12(X, Z) :- e(X, Y), f(Y, Z)"}
	srv, err := service.New(service.Config{Views: views, CacheSize: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	o, err := newServeOracle(in, srv.Catalog().Generation())
	if err != nil {
		t.Fatal(err)
	}
	const query = "q(X, Z) :- e(X, Y), f(Y, Z)"
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before, err := srv.Plan(service.PlanRequest{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	added, err := srv.AddView(in.extra)
	if err != nil {
		t.Fatal(err)
	}
	after, err := srv.Plan(service.PlanRequest{Query: query, Star: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rewritings) < 2 {
		t.Fatalf("the extra view should add a rewriting: %v", after.Rewritings)
	}
	ops := []serveOp{planOp(opCold, query, false), {kind: opAdd, path: "/views/add"}, planOp(opStar, query, true)}
	res := []reqResult{{body: body(before)}, {body: body(added)}, {body: body(after)}}
	if _, failed := o.verify(ops, res); failed != 0 {
		t.Fatalf("%d correct responses rejected", failed)
	}

	corrupt := *after
	corrupt.Rewritings = corrupt.Rewritings[1:]
	res[2].body = body(&corrupt)
	if _, failed := o.verify(ops, res); failed != 1 {
		t.Errorf("a response missing a rewriting: %d failures, want 1", failed)
	}
	// The answer of the other view world does not pass for this one.
	stale := *before
	stale.Generation = after.Generation
	res[2].body = body(&stale)
	res[0].body = body(&stale)
	if _, failed := o.verify(ops, res); failed != 2 {
		t.Errorf("answers from the wrong view world: %d failures, want 2", failed)
	}
	unknown := *after
	unknown.Generation = after.Generation + 100
	res[0].body, res[2].body = body(before), body(&unknown)
	if _, failed := o.verify(ops, res); failed != 1 {
		t.Errorf("a response from an unknown generation: %d failures, want 1", failed)
	}
}
