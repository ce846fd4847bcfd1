package ot

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"otfair/internal/vec"
)

// RowPlan is the read surface a repairer needs from a transport plan: row
// masses and row conditionals to sample repairs from, marginals to audit.
// Both the sparse materialized *Plan and the scaling-form *FactoredPlan
// implement it, which is what lets the joint repair run over 10⁴-state
// product supports whose dense plans (n² atoms) could never be built.
type RowPlan interface {
	// Dims reports the (source, target) state counts.
	Dims() (n, m int)
	// RowMass returns the total mass of source row i.
	RowMass(i int) float64
	// RowConditional returns row i normalized into a conditional pmf over
	// the target states; ok == false marks a zero-mass row.
	RowConditional(i int) (targets []int, probs []float64, ok bool)
	// AppendRowConditional appends RowConditional(i)'s atoms to targets
	// and probs, growing them only when their capacity is short, so a
	// caller that reuses its slices expands rows without allocating.
	AppendRowConditional(i int, targets []int, probs []float64) ([]int, []float64, bool)
	// SourceMarginal returns the plan's push-forward onto the source states.
	SourceMarginal() []float64
	// TargetMarginal returns the plan's push-forward onto the target states.
	TargetMarginal() []float64
	// CheckMarginals verifies both marginals against the given pmfs (L∞).
	CheckMarginals(source, target []float64, tol float64) error
	// TotalMass returns the total transported mass.
	TotalMass() float64
}

// Compile-time interface conformance for both plan representations.
var (
	_ RowPlan = (*Plan)(nil)
	_ RowPlan = (*FactoredPlan)(nil)
)

// FactoredPlan is an entropic transport plan kept in Sinkhorn scaling form,
//
//	π = diag(u) · K · diag(v),
//
// where K is a Gibbs KernelOp. Nothing quadratic in the state count is ever
// stored: the plan is the two scaling vectors plus the operator (for a
// SeparableKernel, Σ_k n_k² factor entries). Rows are materialized lazily on
// demand — RowConditional expands row i in O(n·d), truncates sub-ulp atoms
// exactly like the dense Sinkhorn plans, and returns the compacted
// conditional — so archival repair over product supports touches only the
// rows its records actually snap to.
type FactoredPlan struct {
	op      KernelOp
	u, v    []float64
	rowMass []float64 // u ⊙ K v, cached at construction
}

// NewFactoredPlan assembles a scaling-form plan and caches its row masses.
// The scalings must be non-negative and finite and sized to the operator.
func NewFactoredPlan(op KernelOp, u, v []float64) (*FactoredPlan, error) {
	if op == nil {
		return nil, errors.New("ot: nil kernel operator")
	}
	n, m := op.Dims()
	if len(u) != n || len(v) != m {
		return nil, fmt.Errorf("ot: scalings %d/%d do not match kernel %d×%d", len(u), len(v), n, m)
	}
	for _, s := range [][]float64{u, v} {
		for _, x := range s {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("ot: invalid scaling entry %v", x)
			}
		}
	}
	fp := &FactoredPlan{
		op: op,
		u:  append([]float64(nil), u...),
		v:  append([]float64(nil), v...),
	}
	fp.rowMass = make([]float64, n)
	kv := make([]float64, n)
	op.Apply(kv, fp.v)
	for i := range fp.rowMass {
		fp.rowMass[i] = fp.u[i] * kv[i]
	}
	return fp, nil
}

// Dims reports the (source, target) state counts.
func (p *FactoredPlan) Dims() (n, m int) { return p.op.Dims() }

// Kernel returns the plan's Gibbs operator.
func (p *FactoredPlan) Kernel() KernelOp { return p.op }

// Scalings returns the plan's scaling vectors (read-only) — the
// serialization surface.
func (p *FactoredPlan) Scalings() (u, v []float64) { return p.u, p.v }

// RowMass returns the cached total mass of source row i.
func (p *FactoredPlan) RowMass(i int) float64 { return p.rowMass[i] }

// RowConditional materializes row i, truncates its sub-ulp atoms (folding
// them into the dominant atom, exactly the TruncateSubUlp convention the
// dense Sinkhorn plans apply), and returns the compacted conditional pmf.
// Zero-mass rows (a zero-mass source state) return ok == false. The
// returned slices have room for a full row of m atoms.
func (p *FactoredPlan) RowConditional(i int) (targets []int, probs []float64, ok bool) {
	return p.AppendRowConditional(i, nil, nil)
}

// AppendRowConditional is RowConditional appending into caller-owned
// slices. probs grows to spare capacity for a full row of m atoms, the row
// is expanded there, and two passes turn it into the conditional in
// place. The first expands u_i · K_ij · v_j, sums the row and finds its
// dominant atom; the second drops the sub-ulp atoms and compacts the
// survivors, normalized, onto targets and probs (an atom never moves
// right, so it is read before its slot is reused). The arithmetic is
// TruncateSubUlp's step for step — the sum and the fold both run over
// ascending j, the folded mass lands on the dominant atom in one add, and
// every atom is then divided by the unfolded row total — so the result is
// bit-identical to truncating the expanded row and normalizing it. A
// caller whose slices already have that capacity allocates nothing.
func (p *FactoredPlan) AppendRowConditional(i int, targets []int, probs []float64) ([]int, []float64, bool) {
	_, m := p.op.Dims()
	probs = slices.Grow(probs, m)
	buf := probs[len(probs) : len(probs)+m]
	p.op.Row(buf, i)
	ui := p.u[i]
	total, maxIdx := 0.0, -1
	for j, kij := range buf {
		x := ui * kij * p.v[j]
		buf[j] = x
		total += x
		if maxIdx < 0 || x > buf[maxIdx] {
			maxIdx = j
		}
	}
	if total <= 0 {
		return targets, probs, false
	}
	targets = slices.Grow(targets, m)
	thresh := total * 0x1p-52
	// Compaction can overwrite the dominant atom's slot before the fold is
	// complete; keep its mass aside.
	maxMass := buf[maxIdx]
	folded, dominant := 0.0, -1
	for j, x := range buf {
		switch {
		case j == maxIdx:
			dominant = len(probs)
		case !(x > 0):
			continue
		case x < thresh:
			folded += x
			continue
		}
		targets = append(targets, j)
		probs = append(probs, x/total)
	}
	probs[dominant] = (maxMass + folded) / total
	return targets, probs, true
}

// SourceMarginal returns u ⊙ (K v) — the cached row masses, copied.
func (p *FactoredPlan) SourceMarginal() []float64 {
	return append([]float64(nil), p.rowMass...)
}

// TargetMarginal returns v ⊙ (Kᵀ u).
func (p *FactoredPlan) TargetMarginal() []float64 {
	_, m := p.op.Dims()
	out := make([]float64, m)
	p.op.ApplyT(out, p.u)
	for j := range out {
		out[j] *= p.v[j]
	}
	return out
}

// TotalMass returns the total transported mass.
func (p *FactoredPlan) TotalMass() float64 { return vec.Sum(p.rowMass) }

// CheckMarginals verifies the plan's marginals against the given source and
// target pmfs within tol (L∞) — the same contract as Plan.CheckMarginals.
func (p *FactoredPlan) CheckMarginals(source, target []float64, tol float64) error {
	n, m := p.op.Dims()
	if len(source) != n || len(target) != m {
		return errors.New("ot: marginal length mismatch")
	}
	for i, got := range p.rowMass {
		if math.Abs(got-source[i]) > tol {
			return fmt.Errorf("ot: source marginal %d is %v, want %v", i, got, source[i])
		}
	}
	tm := p.TargetMarginal()
	for j, got := range tm {
		if math.Abs(got-target[j]) > tol {
			return fmt.Errorf("ot: target marginal %d is %v, want %v", j, got, target[j])
		}
	}
	return nil
}

// SinkhornOpResult reports the scaling-domain solver outcome.
type SinkhornOpResult struct {
	Plan *FactoredPlan
	// Iterations actually performed.
	Iterations int
	// MarginalErr is the L1 row-marginal deviation at the last convergence
	// check. The returned plan folds one final source rebalance into its
	// scalings, so this bounds the plan's residual target-side deviation.
	MarginalErr float64
	// Converged records whether MarginalErr fell below Tol before MaxIter.
	Converged bool
}

// SinkhornOp solves the entropically regularized OT problem over a prebuilt
// Gibbs kernel operator with scaling-domain Sinkhorn–Knopp iterations:
//
//	u ← a ./ (K v),   v ← b ./ (Kᵀ u).
//
// It is the cost-free counterpart of Sinkhorn: no cost matrix, no dense
// Gibbs kernel, no materialized plan — each half-iteration is two operator
// applications plus O(n) sweeps, so a separable kernel on a product grid
// solves in O(n·Σ_k n_k) per iteration where the dense path pays O(n²).
// The regularization ε is encoded in the operator; opts.Epsilon is ignored.
//
// Zero-mass marginal states simply pin their scaling to zero (no compaction
// is needed — the operator is never indexed by mass), and a tiny floor on
// the kernel applications keeps the ratios finite. The kernels here are far
// from the underflow regime (ε defaults scale with the maximum cost, so
// exponents stay within a few hundred), which is why the log-domain
// stabilization of the dense solver is not needed; the differential tests
// pin this solver against it within 1e-9.
//
// The convergence check is free: after the v-update, the next u-sweep's
// K v application doubles as the row-marginal evaluation, so the L1 error
// ‖u ⊙ (K v) − a‖₁ costs one extra sweep per checked iteration and no
// kernel application at all.
func SinkhornOp(a, b []float64, op KernelOp, opts SinkhornOptions) (*SinkhornOpResult, error) {
	if op == nil {
		return nil, errors.New("ot: nil kernel operator")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n, m := op.Dims()
	if len(a) != n || len(b) != m {
		return nil, fmt.Errorf("ot: marginals %d/%d do not match kernel %d×%d", len(a), len(b), n, m)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10000
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 1
	}

	sa, sb := 0.0, 0.0
	for _, x := range a {
		if x < 0 || math.IsNaN(x) {
			return nil, errors.New("ot: negative or NaN source mass")
		}
		sa += x
	}
	for _, x := range b {
		if x < 0 || math.IsNaN(x) {
			return nil, errors.New("ot: negative or NaN target mass")
		}
		sb += x
	}
	if sa <= 0 || sb <= 0 {
		return nil, errors.New("ot: zero total mass")
	}
	if math.Abs(sa-sb) > 1e-6*(sa+sb) {
		return nil, fmt.Errorf("ot: unbalanced problem (source mass %v, target mass %v)", sa, sb)
	}
	aw := make([]float64, n)
	bw := make([]float64, m)
	for i, x := range a {
		aw[i] = x / sa
	}
	for j, x := range b {
		bw[j] = x / sb
	}

	const tiny = 1e-300
	u := make([]float64, n)
	v := make([]float64, m)
	for j := range v {
		v[j] = 1
	}
	kv := make([]float64, n)
	ktu := make([]float64, m)

	op.Apply(kv, v)
	vec.Floor(kv, tiny)

	iter := 0
	errL1 := math.Inf(1)
	for ; iter < opts.MaxIter; iter++ {
		vec.DivTo(u, aw, kv)
		op.ApplyT(ktu, u)
		vec.Floor(ktu, tiny)
		vec.DivTo(v, bw, ktu)
		// The next u-sweep needs K v anyway; with it in hand the current
		// plan's row marginal is u ⊙ K v, giving the convergence check for
		// one fused sweep.
		op.Apply(kv, v)
		vec.Floor(kv, tiny)
		if check := (iter+1)%opts.CheckEvery == 0 || iter == opts.MaxIter-1; check {
			errL1 = 0
			for i, ui := range u {
				errL1 += math.Abs(ui*kv[i] - aw[i])
			}
			if errL1 < opts.Tol {
				iter++
				break
			}
		}
	}
	// Fold the final row rebalance into the scalings: u ← a ./ (K v) makes
	// the source marginal exact by construction, leaving the residual error
	// entirely on the target side (bounded by errL1).
	vec.DivTo(u, aw, kv)

	plan, err := NewFactoredPlan(op, u, v)
	if err != nil {
		return nil, err
	}
	return &SinkhornOpResult{
		Plan:        plan,
		Iterations:  iter,
		MarginalErr: errL1,
		Converged:   errL1 < opts.Tol,
	}, nil
}
