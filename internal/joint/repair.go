package joint

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"otfair/internal/dataset"
	"otfair/internal/rng"
)

// Diagnostics counts boundary conditions seen while repairing.
type Diagnostics struct {
	// Repaired is the number of records repaired.
	Repaired int64
	// Clamped counts coordinate values outside the support range.
	Clamped int64
	// EmptyRowFallbacks counts draws that landed on a zero-mass plan row
	// and fell back to the nearest-point row carrying mass.
	EmptyRowFallbacks int64
}

// Repairer applies a joint Plan to off-sample records — Algorithm 2
// generalized to whole feature vectors. Not safe for concurrent use: it
// owns an RNG stream and the scratch its draws are built in.
type Repairer struct {
	plan *Plan
	rng  *rng.RNG
	diag Diagnostics
	// alias caches one sampler per (u, s, row): archival torrents revisit
	// the same rows constantly. The cache fills once and never evicts: a
	// row's sampler is kept only while the total cached atoms stay within
	// aliasBudget, and every later miss is drawn from a sampler built in
	// the scratch below. Entropic rows over an 8 000-state product support
	// carry thousands of atoms each, so on such designs the cache holds the
	// first few hundred rows met and the rest are drawn cold. Either way
	// the sampler is bit-identical and the draw consumes the same RNG
	// stream, so the budget never changes an output.
	alias      map[aliasKey]*rowSampler
	aliasAtoms int
	// aliasBudget is aliasAtomBudget in production; tests shrink it to
	// send more rows down the scratch path.
	aliasBudget int

	// Cold-row scratch, sized at construction for the widest cell so a
	// miss allocates nothing: the row conditional, its alias table and the
	// table's worklist stack.
	targets []int
	probs   []float64
	table   rng.Alias
	stack   []int
	// idx holds a record's per-axis snapped indices.
	idx []int
}

// aliasAtomBudget bounds the alias cache at ~4M cached atoms (≈96 MB of
// targets and alias tables). Small cells (the 256-state NQ=16, d=2 design
// has at most 1 024 distinct keys) cache every row they meet.
const aliasAtomBudget = 1 << 22

type aliasKey struct {
	u, s, row int
}

type rowSampler struct {
	targets []int
	table   *rng.Alias
}

// NewRepairer binds a joint plan to a randomness source.
func NewRepairer(plan *Plan, r *rng.RNG) (*Repairer, error) {
	if plan == nil {
		return nil, errors.New("joint: nil plan")
	}
	if r == nil {
		return nil, errors.New("joint: nil rng")
	}
	states := 0
	for _, cell := range plan.Cells {
		states = max(states, cell.States())
	}
	return &Repairer{
		plan:        plan,
		rng:         r,
		alias:       make(map[aliasKey]*rowSampler),
		aliasBudget: aliasAtomBudget,
		targets:     make([]int, 0, states),
		probs:       make([]float64, 0, states),
		stack:       make([]int, states),
		idx:         make([]int, plan.Dim),
	}, nil
}

// Diagnostics returns the counters accumulated so far.
func (rp *Repairer) Diagnostics() Diagnostics { return rp.diag }

// RepairRecord repairs one labelled record: every coordinate is snapped to
// its axis with the τ-Bernoulli randomization of Eq. (14), the flat product
// state selects the plan row, and the repaired vector is drawn in one piece
// from the row conditional (Eq. 15 over the product support).
func (rp *Repairer) RepairRecord(rec dataset.Record) (dataset.Record, error) {
	if rec.S != 0 && rec.S != 1 {
		return dataset.Record{}, errors.New("joint: record needs a binary s label (estimate it first, or use the blind repairer)")
	}
	if rec.U != 0 && rec.U != 1 {
		return dataset.Record{}, fmt.Errorf("joint: invalid u label %d", rec.U)
	}
	if len(rec.X) != rp.plan.Dim {
		return dataset.Record{}, fmt.Errorf("joint: record has %d features, want %d", len(rec.X), rp.plan.Dim)
	}
	for k, x := range rec.X {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return dataset.Record{}, fmt.Errorf("joint: non-finite feature %d (%v)", k, x)
		}
	}
	cell := rp.plan.Cells[rec.U]
	for k, x := range rec.X {
		rp.idx[k] = rp.snapToAxis(cell.Grids[k], x)
	}
	row := flatIndex(cell.Grids, rp.idx)
	j := rp.drawTarget(cell, rec.U, rec.S, row)
	out := dataset.Record{X: append([]float64(nil), cell.Points[j]...), S: rec.S, U: rec.U}
	rp.diag.Repaired++
	return out, nil
}

// snapToAxis is Algorithm 2 lines 5–8 for one coordinate.
func (rp *Repairer) snapToAxis(grid []float64, x float64) int {
	n := len(grid)
	if n == 1 {
		if x != grid[0] {
			rp.diag.Clamped++
		}
		return 0
	}
	switch {
	case x <= grid[0]:
		if x < grid[0] {
			rp.diag.Clamped++
		}
		return 0
	case x >= grid[n-1]:
		if x > grid[n-1] {
			rp.diag.Clamped++
		}
		return n - 1
	}
	q := sort.SearchFloat64s(grid, x)
	if q == n || grid[q] > x {
		q--
	}
	if grid[q] == x {
		return q
	}
	tau := (x - grid[q]) / (grid[q+1] - grid[q])
	if rp.rng.Bernoulli(tau) {
		q++
	}
	return q
}

// drawTarget draws the repaired product state from plan row `row`. A
// cached row draws from its sampler; a miss builds the row conditional and
// its alias table in the repairer's scratch and draws from that, and keeps
// a copy only while the cache is within its atom budget.
func (rp *Repairer) drawTarget(cell *Cell, u, s, row int) int {
	key := aliasKey{u: u, s: s, row: row}
	if sampler, ok := rp.alias[key]; ok {
		return sampler.targets[sampler.table.Draw(rp.rng)]
	}
	r := rp.nearestMassiveRow(cell, s, row)
	if r != row {
		rp.diag.EmptyRowFallbacks++
	}
	targets, probs, ok := cell.Plans[s].AppendRowConditional(r, rp.targets[:0], rp.probs[:0])
	if !ok {
		panic("joint: plan has no mass in any row")
	}
	rp.targets, rp.probs = targets, probs
	table := &rp.table
	if rp.aliasAtoms+len(targets) <= rp.aliasBudget {
		sampler := &rowSampler{targets: slices.Clone(targets), table: &rng.Alias{}}
		rp.alias[key] = sampler
		rp.aliasAtoms += len(targets)
		targets, table = sampler.targets, sampler.table
	}
	rp.stack = table.Reset(probs, rp.stack)
	return targets[table.Draw(rp.rng)]
}

// nearestMassiveRow returns row if it has mass, otherwise the row whose
// support point is closest in squared Euclidean distance among rows with
// mass. Sinkhorn plans are dense, so this path only triggers after the
// feasibility rounding zeroes a boundary row.
func (rp *Repairer) nearestMassiveRow(cell *Cell, s, row int) int {
	plan := cell.Plans[s]
	if plan.RowMass(row) > 0 {
		return row
	}
	best, bestDist := row, -1.0
	from := cell.Points[row]
	for i := range cell.Points {
		if plan.RowMass(i) <= 0 {
			continue
		}
		d := 0.0
		for k := range from {
			diff := from[k] - cell.Points[i][k]
			d += diff * diff
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// RepairStream consumes a record stream and emits repaired records to sink
// with O(1) memory, mirroring core.Repairer.RepairStream for the torrent
// deployment mode.
func (rp *Repairer) RepairStream(in dataset.Stream, sink func(dataset.Record) error) (int, error) {
	if in.Dim() != rp.plan.Dim {
		return 0, fmt.Errorf("joint: stream dimension %d does not match plan %d", in.Dim(), rp.plan.Dim)
	}
	n := 0
	for {
		rec, err := in.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		repaired, err := rp.RepairRecord(rec)
		if err != nil {
			return n, fmt.Errorf("joint: stream record %d: %w", n, err)
		}
		if err := sink(repaired); err != nil {
			return n, err
		}
		n++
	}
}

// RepairTable repairs every record of a table in order, returning a new
// table with identical labels.
func (rp *Repairer) RepairTable(t *dataset.Table) (*dataset.Table, error) {
	if t == nil {
		return nil, errors.New("joint: nil table")
	}
	if t.Dim() != rp.plan.Dim {
		return nil, fmt.Errorf("joint: table dimension %d does not match plan %d", t.Dim(), rp.plan.Dim)
	}
	out, err := dataset.NewTable(t.Dim(), t.Names())
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		rec, err := rp.RepairRecord(t.At(i))
		if err != nil {
			return nil, fmt.Errorf("joint: record %d: %w", i, err)
		}
		if err := out.Append(rec); err != nil {
			return nil, fmt.Errorf("joint: record %d: %w", i, err)
		}
	}
	return out, nil
}
