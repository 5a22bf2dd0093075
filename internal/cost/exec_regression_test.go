package cost

import (
	"runtime"
	"testing"

	"viewplan/internal/engine"
	"viewplan/internal/workload"
)

// mallocsDuring counts heap allocations across one run of f on a
// single-threaded schedule (deterministic enough at the million-alloc
// scale these gates compare).
func mallocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// The streaming executor's reason to exist, pinned as a regression
// test: on a multi-million-row chain whose materialized intermediates
// exceed the answer by ≥100×, streaming execution keeps at least 5×
// fewer resident rows and completes in at least 2× fewer allocations
// than the materialized replay — while staying byte-identical to it.
func TestStreamExecPeakAndAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-row workload")
	}
	db := engine.NewDatabase()
	q, err := workload.ExecChain(db, workload.ExecConfig{Keys: 300000, FanOut: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The chain order is the plan under test; no optimizer run, so the
	// cost simulation's own materialization stays out of the picture.
	plan := &Plan{Model: M2, Rewriting: q}

	var matOut *engine.Relation
	var matStats ExecStats
	matAllocs := mallocsDuring(func() {
		matOut, matStats, err = ExecutePlan(db, plan, ExecOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if matOut.Size() == 0 {
		t.Fatal("empty answer; the workload generator is broken")
	}
	if blowup := matStats.PeakResidentRows / int64(matOut.Size()); blowup < 100 {
		t.Fatalf("materialized intermediates exceed the answer only %d×, want ≥100× (peak %d, answer %d)",
			blowup, matStats.PeakResidentRows, matOut.Size())
	}

	var strOut *engine.Relation
	var strStats ExecStats
	strAllocs := mallocsDuring(func() {
		strOut, strStats, err = ExecutePlan(db, plan, ExecOptions{StreamExec: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsIdentical(matOut, strOut) {
		t.Fatal("streaming answer differs from materialized")
	}
	if strStats.PeakResidentRows*5 > matStats.PeakResidentRows {
		t.Fatalf("streaming peak %d not ≥5× below materialized peak %d",
			strStats.PeakResidentRows, matStats.PeakResidentRows)
	}
	if strAllocs*2 > matAllocs {
		t.Fatalf("streaming allocated %d, not ≥2× below materialized %d", strAllocs, matAllocs)
	}
	t.Logf("answer %d rows; peak resident: materialized %d, streaming %d; allocs: materialized %d, streaming %d",
		matOut.Size(), matStats.PeakResidentRows, strStats.PeakResidentRows, matAllocs, strAllocs)
}
