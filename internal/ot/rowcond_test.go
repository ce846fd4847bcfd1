package ot

import (
	"math"
	"math/rand"
	"testing"
)

// factoredConditionalOracle is FactoredPlan.RowConditional as it read
// before the row expansion and truncation were fused: expand the row,
// TruncateSubUlp it, then compact and normalize. It also reports how many
// sub-ulp atoms the truncation dropped.
func factoredConditionalOracle(p *FactoredPlan, i int) (targets []int, probs []float64, ok bool, dropped int) {
	_, m := p.op.Dims()
	buf := make([]float64, m)
	p.op.Row(buf, i)
	ui := p.u[i]
	for j, kij := range buf {
		buf[j] = ui * kij * p.v[j]
	}
	total := 0.0
	for _, x := range buf {
		total += x
	}
	if total <= 0 {
		return nil, nil, false, 0
	}
	dropped = TruncateSubUlp(buf)
	nnz := len(buf) - dropped
	targets = make([]int, 0, nnz)
	probs = make([]float64, 0, nnz)
	for j, mass := range buf {
		if mass > 0 {
			targets = append(targets, j)
			probs = append(probs, mass/total)
		}
	}
	return targets, probs, true, dropped
}

// planConditionalOracle is the allocating Plan.RowConditional kept as the
// reference for the appending form.
func planConditionalOracle(p *Plan, i int) (targets []int, probs []float64, ok bool) {
	row := p.Row(i)
	total := 0.0
	for _, e := range row {
		total += e.Mass
	}
	if total <= 0 {
		return nil, nil, false
	}
	targets = make([]int, len(row))
	probs = make([]float64, len(row))
	for k, e := range row {
		targets[k] = e.J
		probs[k] = e.Mass / total
	}
	return targets, probs, true
}

// sameConditional reports whether two conditionals are bit-identical.
func sameConditional(t1 []int, p1 []float64, t2 []int, p2 []float64) bool {
	if len(t1) != len(t2) || len(p1) != len(p2) || len(t1) != len(p1) {
		return false
	}
	for k := range t1 {
		if t1[k] != t2[k] || math.Float64bits(p1[k]) != math.Float64bits(p2[k]) {
			return false
		}
	}
	return true
}

// checkAppendForms pins every way of calling AppendRowConditional against
// the oracle's row: fresh (RowConditional), into reused scratch with room
// for a full row, and after a prefix that must survive untouched, both
// with spare capacity and without.
func checkAppendForms(t *testing.T, p RowPlan, i int, wantT []int, wantP []float64, wantOK bool) {
	t.Helper()
	_, m := p.Dims()
	gotT, gotP, ok := p.RowConditional(i)
	if ok != wantOK || !sameConditional(gotT, gotP, wantT, wantP) {
		t.Fatalf("row %d: RowConditional differs from the reference", i)
	}
	scratchT, scratchP := make([]int, 0, m), make([]float64, 0, m)
	gotT, gotP, ok = p.AppendRowConditional(i, scratchT, scratchP)
	if ok != wantOK || !sameConditional(gotT, gotP, wantT, wantP) {
		t.Fatalf("row %d: AppendRowConditional into scratch differs from the reference", i)
	}
	for _, spare := range []int{0, m} {
		preT := append(make([]int, 0, 2+spare), -7, -8)
		preP := append(make([]float64, 0, 2+spare), 0.25, 0.5)
		gotT, gotP, ok = p.AppendRowConditional(i, preT, preP)
		if ok != wantOK || len(gotT) < 2 || gotT[0] != -7 || gotT[1] != -8 || gotP[0] != 0.25 || gotP[1] != 0.5 {
			t.Fatalf("row %d (spare %d): prefix not preserved", i, spare)
		}
		if !sameConditional(gotT[2:], gotP[2:], wantT, wantP) {
			t.Fatalf("row %d (spare %d): appended atoms differ from the reference", i, spare)
		}
	}
}

// TestFactoredAppendRowConditionalMatchesOracle covers every row of
// random separable plans whose narrow kernels put many atoms below one
// ulp of their row total, with one zero-mass source state.
func TestFactoredAppendRowConditionalMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, c := range []struct {
		sizes []int
		eps   float64
	}{{[]int{6, 5}, 0.05}, {[]int{4, 3, 5}, 0.2}, {[]int{7}, 3}, {[]int{1, 9}, 0.02}} {
		grids := randomGrids(r, c.sizes)
		sk, err := NewSeparableGibbs(grids, c.eps)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := sk.Dims()
		u, v := smoothPMF(r, n), smoothPMF(r, n)
		u[n/2] = 0
		p, err := NewFactoredPlan(sk, u, v)
		if err != nil {
			t.Fatal(err)
		}
		dropped, empty := 0, 0
		for i := 0; i < n; i++ {
			wantT, wantP, wantOK, d := factoredConditionalOracle(p, i)
			dropped += d
			if !wantOK {
				empty++
			}
			checkAppendForms(t, p, i, wantT, wantP, wantOK)
		}
		if empty != 1 {
			t.Fatalf("sizes %v: %d zero-mass rows, want 1", c.sizes, empty)
		}
		if c.eps < 1 && dropped == 0 {
			t.Fatalf("sizes %v eps %v: no sub-ulp atoms; the fold path is untested", c.sizes, c.eps)
		}
	}
}

// TestPlanAppendRowConditionalMatchesOracle covers every row of a random
// sparse plan, including an empty row and atoms far below the row total.
func TestPlanAppendRowConditionalMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	const n, m = 9, 11
	var entries []Entry
	for i := 0; i < n; i++ {
		if i == 4 {
			continue // a zero-mass row
		}
		for j := 0; j < m; j++ {
			if r.Intn(3) == 0 {
				continue
			}
			mass := r.Float64()
			if r.Intn(4) == 0 {
				mass *= 1e-20
			}
			entries = append(entries, Entry{I: i, J: j, Mass: mass})
		}
	}
	p, err := NewPlan(n, m, entries)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		wantT, wantP, wantOK := planConditionalOracle(p, i)
		if (i == 4) == wantOK {
			t.Fatalf("row %d: ok = %v", i, wantOK)
		}
		checkAppendForms(t, p, i, wantT, wantP, wantOK)
	}
}

// TestAppendRowConditionalWarmAllocs pins the cold-row draw's expansion:
// with scratch sized for a full row, expanding a factored row allocates
// nothing.
func TestAppendRowConditionalWarmAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	sk, err := NewSeparableGibbs(randomGrids(r, []int{8, 8, 8}), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := sk.Dims()
	p, err := NewFactoredPlan(sk, smoothPMF(r, n), smoothPMF(r, n))
	if err != nil {
		t.Fatal(err)
	}
	targets, probs := make([]int, 0, n), make([]float64, 0, n)
	row := 0
	allocs := testing.AllocsPerRun(50, func() {
		targets, probs, _ = p.AppendRowConditional(row, targets[:0], probs[:0])
		row = (row + 37) % n
	})
	if allocs != 0 {
		t.Fatalf("warm AppendRowConditional allocated %v times per call, want 0", allocs)
	}
}
