package joint

import (
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"otfair/internal/dataset"
	"otfair/internal/rng"
)

// threeDTables draws a d = 3 research/archive pair whose s-groups differ
// in location on every axis.
func threeDTables(t *testing.T, seed uint64, nR, nA int) (*dataset.Table, *dataset.Table) {
	t.Helper()
	r := rng.New(seed)
	draw := func(n int) *dataset.Table {
		tab := dataset.MustTable(3, nil)
		for i := 0; i < n; i++ {
			s := (i / 2) % 2
			shift := float64(s)
			rec := dataset.Record{
				X: []float64{r.Normal(shift, 1), r.Normal(shift, 1), r.Normal(-shift, 1)},
				S: s, U: i % 2,
			}
			if err := tab.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	return draw(nR), draw(nA)
}

// TestRepairOutputIndependentOfCacheBudget pins the property the alias
// cache must keep: which rows it holds never changes a repaired value. A
// budget of zero draws every record from scratch-built samplers, a tiny
// budget caches the first rows met and draws the rest cold, and the
// production budget caches every row these designs reach; all three must
// repair byte-identically.
func TestRepairOutputIndependentOfCacheBudget(t *testing.T) {
	r2, a2 := paperTables(t, 21, 400, 300)
	r3, a3 := threeDTables(t, 23, 600, 400)
	for _, c := range []struct {
		name     string
		research *dataset.Table
		archive  *dataset.Table
		nq       int
		tiny     int
	}{
		{"d=2 NQ=12", r2, a2, 12, 256},
		{"d=3 NQ=8", r3, a3, 8, 2048},
	} {
		plan, err := Design(c.research, Options{NQ: c.nq})
		if err != nil {
			t.Fatal(err)
		}
		run := func(budget int) (*dataset.Table, *Repairer) {
			rp, err := NewRepairer(plan, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			rp.aliasBudget = budget
			out, err := rp.RepairTable(c.archive)
			if err != nil {
				t.Fatal(err)
			}
			return out, rp
		}
		want, full := run(aliasAtomBudget)
		none, cold := run(0)
		some, tiny := run(c.tiny)
		if len(cold.alias) != 0 || cold.aliasAtoms != 0 {
			t.Fatalf("%s: zero budget cached %d rows", c.name, len(cold.alias))
		}
		if len(tiny.alias) == 0 || len(tiny.alias) >= len(full.alias) || tiny.aliasAtoms > c.tiny {
			t.Fatalf("%s: tiny budget cached %d of %d rows (%d atoms); the test exercises only one path",
				c.name, len(tiny.alias), len(full.alias), tiny.aliasAtoms)
		}
		for i := 0; i < want.Len(); i++ {
			w := want.At(i)
			for _, got := range []dataset.Record{none.At(i), some.At(i)} {
				if got.S != w.S || got.U != w.U {
					t.Fatalf("%s record %d: labels differ across budgets", c.name, i)
				}
				for k := range w.X {
					if math.Float64bits(got.X[k]) != math.Float64bits(w.X[k]) {
						t.Fatalf("%s record %d coord %d: %v with a shrunk cache, %v with the default",
							c.name, i, k, got.X[k], w.X[k])
					}
				}
			}
		}
		if full.Diagnostics() != cold.Diagnostics() || full.Diagnostics() != tiny.Diagnostics() {
			t.Fatalf("%s: diagnostics differ across budgets: %+v %+v %+v",
				c.name, full.Diagnostics(), cold.Diagnostics(), tiny.Diagnostics())
		}
	}
}

// TestColdRowDrawAllocatesNothing pins the scratch path: once a repairer
// exists, a draw from a row the cache does not hold builds the row and its
// alias table without allocating, on the factored plans and on the dense
// oracle's sparse ones.
func TestColdRowDrawAllocatesNothing(t *testing.T) {
	research, _ := threeDTables(t, 24, 600, 0)
	for _, dense := range []bool{false, true} {
		plan, err := Design(research, Options{NQ: 6, Dense: dense})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := NewRepairer(plan, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		rp.aliasBudget = 0
		cell := plan.Cells[1]
		row := 0
		allocs := testing.AllocsPerRun(100, func() {
			rp.drawTarget(cell, 1, row%2, row)
			row = (row + 29) % cell.States()
		})
		if allocs != 0 {
			t.Fatalf("dense=%v: cold-row draw allocated %v times, want 0", dense, allocs)
		}
	}
}

// TestRepairRecordAllocatesOnlyOutput pins the per-record allocation: the
// repaired record's feature vector and nothing else, whether its row is
// cached or drawn cold.
func TestRepairRecordAllocatesOnlyOutput(t *testing.T) {
	research, archive := threeDTables(t, 25, 600, 200)
	plan, err := Design(research, Options{NQ: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, aliasAtomBudget} {
		rp, err := NewRepairer(plan, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		rp.aliasBudget = budget
		// Warm the cache (when it has room) over every record first.
		if _, err := rp.RepairTable(archive); err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := rp.RepairRecord(archive.At(i)); err != nil {
				t.Fatal(err)
			}
			i = (i + 1) % archive.Len()
		})
		if allocs > 1 {
			t.Fatalf("budget %d: RepairRecord allocated %v times per record, want ≤ 1", budget, allocs)
		}
	}
}

// recordStream yields fixed records without the validation a Table
// applies on Append, so malformed input reaches the repairer.
type recordStream struct {
	dim  int
	recs []dataset.Record
}

func (s *recordStream) Dim() int { return s.dim }

func (s *recordStream) Next() (dataset.Record, error) {
	if len(s.recs) == 0 {
		return dataset.Record{}, io.EOF
	}
	rec := s.recs[0]
	s.recs = s.recs[1:]
	return rec, nil
}

// TestRepairRejectsNonFiniteFeatures: a NaN fails every comparison in the
// axis snap, so before this check it was silently repaired to the top grid
// point without counting as clamped. Non-finite coordinates must be
// rejected before any randomness is spent or any counter moves.
func TestRepairRejectsNonFiniteFeatures(t *testing.T) {
	research, _ := paperTables(t, 26, 400, 0)
	plan, err := Design(research, Options{NQ: 10})
	if err != nil {
		t.Fatal(err)
	}
	valid := dataset.Record{X: []float64{0.4, -0.2}, S: 1, U: 0}
	rp, err := NewRepairer(plan, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var bad []dataset.Record
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for k := 0; k < 2; k++ {
			rec := dataset.Record{X: []float64{0.1, 0.3}, S: 0, U: 1}
			rec.X[k] = x
			bad = append(bad, rec)
			if _, err := rp.RepairRecord(rec); err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("feature %d = %v: err = %v, want a non-finite feature error", k, x, err)
			}
		}
	}
	if d := rp.Diagnostics(); d != (Diagnostics{}) {
		t.Fatalf("rejected records moved the diagnostics: %+v", d)
	}
	// No randomness was spent: the next valid record repairs exactly as it
	// would on a fresh repairer.
	fresh, err := NewRepairer(plan, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rp.RepairRecord(valid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RepairRecord(valid)
	if err != nil {
		t.Fatal(err)
	}
	if got.X[0] != want.X[0] || got.X[1] != want.X[1] {
		t.Fatalf("repair after rejected records %v, fresh repairer %v", got.X, want.X)
	}

	for _, rec := range bad {
		sp, err := NewRepairer(plan, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		var sunk int
		n, err := sp.RepairStream(&recordStream{dim: 2, recs: []dataset.Record{valid, rec, valid}},
			func(dataset.Record) error { sunk++; return nil })
		if err == nil || !strings.Contains(err.Error(), "stream record 1") || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("stream with %v: err = %v, want record 1 rejected as non-finite", rec.X, err)
		}
		if errors.Is(err, io.EOF) || n != 1 || sunk != 1 {
			t.Fatalf("stream with %v: repaired %d, sank %d, want 1 each", rec.X, n, sunk)
		}
	}
}
