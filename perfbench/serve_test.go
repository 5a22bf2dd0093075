package main

import (
	"testing"

	"viewplan/internal/service"
)

func TestServerParsedMirrorsTheRenderingMemo(t *testing.T) {
	s := &serveSession{memo: map[string]bool{}}
	hot := planOp(opHot, "q(X0, X1) :- e1(X0, X1)", false)
	star := planOp(opStar, hot.query, true)
	for i, tc := range []struct {
		op   serveOp
		gen  uint64
		hit  bool
		want bool
	}{
		{hot, 1, false, true},  // plan-cache miss: parsed, not kept
		{hot, 1, true, true},   // first hit: parsed, then kept
		{hot, 1, true, false},  // kept: not parsed
		{star, 1, true, true},  // the star flag is part of the key
		{hot, 2, true, true},   // a new generation keeps nothing yet
		{hot, 2, false, false}, // kept although the plan cache lost it
	} {
		pr := &service.PlanResponse{Generation: tc.gen, CacheHit: tc.hit}
		if got := s.serverParsed(tc.op, pr); got != tc.want {
			t.Errorf("request %d: serverParsed = %v, want %v", i, got, tc.want)
		}
	}
}
