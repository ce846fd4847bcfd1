package rng

import "math"

// Alias is a Walker/Vose alias table for O(1) draws from a fixed discrete
// distribution. Algorithm 2 draws one categorical sample per archival point
// per feature from the same nQ plan rows, so the per-draw cost matters when
// repairing torrents of archival data; the alias table makes each draw two
// uniforms and one comparison regardless of nQ.
//
// The zero value is an empty table; Reset fills it. A table rebuilt with
// Reset reuses its own buffers, so a caller that redraws from a stream of
// distinct rows (joint repair over a large product support) builds each
// table without allocating.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from the (possibly unnormalized)
// non-negative weight vector w. It panics on negative, NaN, or zero-total
// weights for the same reason Categorical does.
func NewAlias(w []float64) *Alias {
	a := &Alias{}
	a.Reset(w, nil)
	return a
}

// Reset rebuilds the table from the weight vector w into its own buffers,
// growing them only when w is longer than any vector the table has held.
// stack is the Vose worklist scratch (one index per category); Reset grows
// it when its capacity is short and returns it, so a caller that keeps the
// returned slice rebuilds without allocating. The table is bit-identical to
// NewAlias(w), and Reset panics on the same invalid weights, before
// touching the table.
func (a *Alias) Reset(w []float64, stack []int) []int {
	n := len(w)
	if n == 0 {
		panic("rng: NewAlias called with empty weights")
	}
	total := 0.0
	for _, wi := range w {
		if wi < 0 || math.IsNaN(wi) {
			panic("rng: NewAlias called with negative or NaN weight")
		}
		total += wi
	}
	if total <= 0 {
		panic("rng: NewAlias called with zero total mass")
	}

	a.prob = grow(a.prob, n)
	a.alias = grow(a.alias, n)
	if n == 1 {
		// Degenerate table: exact monotone plan rows are 1–2 atoms, so the
		// eager per-plan sampler builds thousands of these; skip the
		// worklist machinery.
		a.prob[0] = 1
		a.alias[0] = 0
		return stack
	}
	// prob holds the scaled probabilities (mean 1) while the worklists
	// drain; a cell's entry is final once it leaves the small list.
	prob := a.prob
	for i, wi := range w {
		prob[i] = wi * float64(n) / total
	}
	// One n-slot stack holds both worklists: small grows up from 0, large
	// grows down from n. An index sits in at most one list, so they never
	// meet. Both are LIFO, in the order separate slices would give.
	stack = grow(stack, n)
	ns, nl := 0, n
	for i, p := range prob {
		if p < 1 {
			stack[ns] = i
			ns++
		} else {
			nl--
			stack[nl] = i
		}
	}
	for ns > 0 && nl < n {
		ns--
		s := stack[ns]
		l := stack[nl]
		nl++

		a.alias[s] = l
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			stack[ns] = l
			ns++
		} else {
			nl--
			stack[nl] = l
		}
	}
	for _, i := range stack[nl:n] {
		prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range stack[:ns] {
		// Only reachable through floating-point round-off; these cells have
		// scaled mass within ulps of 1.
		prob[i] = 1
		a.alias[i] = i
	}
	return stack
}

// grow returns s resliced to length n, reallocating only when its capacity
// is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Len reports the number of categories.
func (a *Alias) Len() int { return len(a.prob) }

// Draw returns a category index distributed according to the weights the
// table was built from.
func (a *Alias) Draw(r *RNG) int {
	i := r.IntN(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
