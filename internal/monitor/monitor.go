// Package monitor guards the stationarity assumption the paper's deployment
// mode rests on (Section IV requirement 2 and the Section VI discussion):
// repair plans are designed once on research data and then applied to
// unbounded archival torrents, which is only sound while the torrent keeps
// drawing from the design-time population. The stream monitor compares a
// rolling window of incoming feature values against the plan's own
// interpolated marginals (one-sample KS plus PSI) per (u,s,feature) cell
// and raises alarms when the plan has gone stale; the stopping rule answers
// the complementary design-time question — how much research data is enough
// (Section VI: "stopping rules for learning of the marginals").
package monitor

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/rng"
)

// AlarmKind labels which statistic tripped.
type AlarmKind int

const (
	// AlarmKS marks a one-sample Kolmogorov–Smirnov rejection.
	AlarmKS AlarmKind = iota
	// AlarmPSI marks a population-stability-index excursion.
	AlarmPSI
)

// String names the alarm kind.
func (k AlarmKind) String() string {
	if k == AlarmPSI {
		return "psi"
	}
	return "ks"
}

// Alarm reports one stale cell: the (u,s,feature) whose incoming window no
// longer matches the design-time marginal.
type Alarm struct {
	// U, S, K locate the cell.
	U, S, K int
	// Kind is the statistic that tripped.
	Kind AlarmKind
	// Stat is the observed statistic and Threshold the bound it crossed.
	Stat, Threshold float64
	// Window is the number of observations the statistic was computed on.
	Window int
	// Seen is the total number of records observed when the alarm fired.
	Seen int64
}

// String renders an alarm for logs.
func (a Alarm) String() string {
	return fmt.Sprintf("monitor: drift in (u=%d,s=%d,k=%d): %s=%.4f > %.4f (window %d, after %d records)",
		a.U, a.S, a.K, a.Kind, a.Stat, a.Threshold, a.Window, a.Seen)
}

// Options configures the stream monitor.
type Options struct {
	// Window is the per-cell rolling window length (default 256).
	Window int
	// CheckEvery runs the statistics once per this many observations in a
	// cell after its window first fills (default Window/4).
	CheckEvery int
	// Alpha is the KS test level (default 0.001). The reference marginal is
	// itself estimated from finite research data with KDE smoothing and
	// grid quantization, so the operating level is approximate; the default
	// is conservative to keep stationary streams quiet.
	Alpha float64
	// PSIWarn is the PSI alarm threshold (default 0.25, the upper edge of
	// the industry "major shift" convention — again conservative because
	// the expected-bin masses carry estimation error).
	PSIWarn float64
	// Cooldown suppresses repeat alarms from one cell for this many
	// observations after it fires (default Window), so a persistent drift
	// produces a report per window rather than per record.
	Cooldown int
	// Dither perturbs each incoming value by the cell's design bandwidth
	// before windowing, mirroring core.RepairOptions.KernelDither: the
	// reference pmfs are KDE-smoothed, so atomic or integer features (e.g.
	// Adult's 40-hours spike) otherwise register a permanent KS gap of
	// about half the atom's mass and page forever. Dithered inputs are
	// distributionally consistent with the smoothed reference. Off by
	// default; turn it on whenever the repair itself runs with dithering.
	Dither bool
	// Seed drives the dithering noise (default 1; only used with Dither).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = 256
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = o.Window / 4
		if o.CheckEvery == 0 {
			o.CheckEvery = 1
		}
	}
	if o.Alpha == 0 {
		o.Alpha = 0.001
	}
	if o.PSIWarn == 0 {
		o.PSIWarn = 0.25
	}
	if o.Cooldown == 0 {
		o.Cooldown = o.Window
	}
	return o
}

// cellState is one (u,s,k) rolling window. It holds grid indices, not
// feature values: every statistic compares the window against a reference
// that steps only at the cell's grid atoms Q, so all a check needs is how
// many window entries sit below and at each atom. An entry x has lo, the
// index of the first atom ≥ x, and hi, the index of the first atom > x.
// The two histograms count entries by lo and by hi over [0, NQ], so
// #{x ≤ Q[i]} and #{x < Q[i]} are prefix sums of them. An entry costs one
// binary search on arrival and two decrements on eviction, and a check is
// one O(NQ) walk with no copy, no sort and no allocation.
type cellState struct {
	// ring holds lo<<1 | tie per window entry, tie being 1 when x equals
	// Q[lo]; hi follows from the two (see firstAbove).
	ring     []int32
	lo, hi   []int32 // entry counts by lo and by hi, NQ+1 each
	n        int     // filled length (≤ len(ring))
	next     int     // ring write position
	sinceChk int     // observations since last check
	cooldown int     // observations to skip alarming for
	observed int64   // lifetime observations
	// ksRatio and psiRatio are the statistic/threshold ratios of the most
	// recent check — a continuous drift score (≥ 1 means alarming), kept
	// even when no alarm fires so dashboards and the drift-watch loop can
	// see drift building and, after a recalibration, receding.
	ksRatio, psiRatio float64
	// nRef is the research group size n_{R,u,s} (0 when unrecorded).
	nRef int
	// psiEdges are the grid indices of the coarse PSI bins' right-closed
	// upper edges (the last bin is unbounded) and psiExpected their
	// reference masses: roughly equal-expected-mass bins, the industry
	// convention that keeps the index stable at rolling-window sample
	// sizes (fine 50-state bins put ~5 observations in each and the index
	// never settles). Every edge is a grid atom, so a bin's observed count
	// is a difference of lo prefix sums.
	psiEdges    []int
	psiExpected []float64
}

// Monitor watches a record stream against a designed plan. Not safe for
// concurrent use.
type Monitor struct {
	plan *core.Plan
	opts Options
	// cells is indexed ((u·2)+s)·Dim + k; a cell is nil until first
	// observed, so unlabelled traffic costs no window memory.
	cells []*cellState
	// psiObs is the observed-pmf scratch every check reuses.
	psiObs [psiBinCount]float64
	rng    *rng.RNG // nil unless Options.Dither
	seen   int64
	fired  int64
}

// New builds a monitor for the plan the deployment repairs with.
func New(plan *core.Plan, opts Options) (*Monitor, error) {
	if plan == nil {
		return nil, errors.New("monitor: nil plan")
	}
	opts = opts.withDefaults()
	if opts.Window < 8 {
		return nil, fmt.Errorf("monitor: window %d too small (minimum 8)", opts.Window)
	}
	if opts.Alpha <= 0 || opts.Alpha >= 1 {
		return nil, fmt.Errorf("monitor: alpha %v outside (0,1)", opts.Alpha)
	}
	m := &Monitor{
		plan:  plan,
		opts:  opts,
		cells: make([]*cellState, 4*plan.Dim),
	}
	if opts.Dither {
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		m.rng = rng.New(seed)
	}
	return m, nil
}

// Seen returns the number of records observed.
func (m *Monitor) Seen() int64 { return m.seen }

// Fired returns the number of alarms raised so far.
func (m *Monitor) Fired() int64 { return m.fired }

// Summary is a point-in-time view of the monitor for serving dashboards
// (the /v1/metrics endpoint of cmd/fairserved) and logs.
type Summary struct {
	// Seen and Fired mirror the cumulative counters.
	Seen, Fired int64
	// WatchedCells is the number of (u,s,feature) cells with any
	// observations; FullWindows counts those whose rolling window has
	// filled, i.e. cells the statistics actually run on.
	WatchedCells, FullWindows int
	// MaxKSRatio and MaxPSIRatio are the worst statistic/threshold ratios
	// across cells at their most recent checks — continuous drift scores
	// where a value ≥ 1 means that statistic is past its alarm bound. Zero
	// until some cell's window has filled and been checked.
	MaxKSRatio, MaxPSIRatio float64
}

// Snapshot summarizes the monitor's current state. Like every Monitor
// method it must not race Observe; callers serialize access.
func (m *Monitor) Snapshot() Summary {
	s := Summary{Seen: m.seen, Fired: m.fired}
	for _, cs := range m.cells {
		if cs == nil {
			continue
		}
		s.WatchedCells++
		if cs.n == len(cs.ring) {
			s.FullWindows++
		}
		if cs.ksRatio > s.MaxKSRatio {
			s.MaxKSRatio = cs.ksRatio
		}
		if cs.psiRatio > s.MaxPSIRatio {
			s.MaxPSIRatio = cs.psiRatio
		}
	}
	return s
}

// Observe ingests one labelled record and returns any alarms it triggers
// (usually none). Records with unknown s are ignored: the monitor watches
// the same (u,s,k)-cells the plans are indexed by. A record with a NaN or
// infinite feature is an error and leaves the monitor untouched.
func (m *Monitor) Observe(rec dataset.Record) ([]Alarm, error) {
	if rec.S == dataset.SUnknown {
		return nil, nil
	}
	if rec.S != 0 && rec.S != 1 || rec.U != 0 && rec.U != 1 {
		return nil, fmt.Errorf("monitor: invalid labels (s=%d, u=%d)", rec.S, rec.U)
	}
	if len(rec.X) != m.plan.Dim {
		return nil, fmt.Errorf("monitor: record has %d features, want %d", len(rec.X), m.plan.Dim)
	}
	for k, x := range rec.X {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("monitor: non-finite feature %d (%v)", k, x)
		}
	}
	m.seen++
	var alarms []Alarm
	cells := m.cells[(rec.U*2+rec.S)*m.plan.Dim:]
	for k, x := range rec.X {
		cell := m.plan.Cell(rec.U, k)
		cs := cells[k]
		if cs == nil {
			cs = m.watch(cell, rec.U, rec.S)
			cells[k] = cs
		}
		if m.rng != nil {
			if h := cell.H[rec.S]; h > 0 && !cell.Degenerate {
				x += h * kde.Sample(m.plan.Opts.Kernel, m.rng)
			}
		}
		cs.push(cell.Q, x)
		cs.observed++
		cs.sinceChk++
		if cs.cooldown > 0 {
			cs.cooldown--
			continue
		}
		if cs.n < len(cs.ring) || cs.sinceChk < m.opts.CheckEvery {
			continue
		}
		cs.sinceChk = 0
		before := len(alarms)
		var err error
		if alarms, err = m.check(rec.U, rec.S, k, cs, alarms); err != nil {
			return nil, err
		}
		if fired := len(alarms) - before; fired > 0 {
			cs.cooldown = m.opts.Cooldown
			m.fired += int64(fired)
		}
	}
	return alarms, nil
}

// watch builds a cell's window on its first observation.
func (m *Monitor) watch(cell *core.Cell, u, s int) *cellState {
	nq := len(cell.Q)
	cs := &cellState{
		ring: make([]int32, m.opts.Window),
		lo:   make([]int32, nq+1),
		hi:   make([]int32, nq+1),
		nRef: m.plan.GroupSizes[dataset.Group{U: u, S: s}],
	}
	if cell.Degenerate {
		return cs // never checked
	}
	cum, binMass := 0.0, 0.0
	bin := 1
	for i, p := range cell.PMF[s] {
		cum += p
		binMass += p
		if cum >= float64(bin)/psiBinCount && bin < psiBinCount && i < nq-1 {
			cs.psiEdges = append(cs.psiEdges, i)
			cs.psiExpected = append(cs.psiExpected, binMass)
			binMass = 0
			bin++
		}
	}
	cs.psiExpected = append(cs.psiExpected, binMass)
	return cs
}

// push enters x into the window on grid q, evicting the oldest entry once
// the window is full.
func (cs *cellState) push(q []float64, x float64) {
	if cs.n == len(cs.ring) {
		old := cs.ring[cs.next]
		lo := int(old >> 1)
		cs.lo[lo]--
		cs.hi[firstAbove(q, lo, old&1 == 1)]--
	} else {
		cs.n++
	}
	lo := sort.SearchFloat64s(q, x)
	tie := lo < len(q) && q[lo] == x
	cs.ring[cs.next] = int32(lo) << 1
	if tie {
		cs.ring[cs.next] |= 1
	}
	cs.lo[lo]++
	cs.hi[firstAbove(q, lo, tie)]++
	cs.next++
	if cs.next == len(cs.ring) {
		cs.next = 0
	}
}

// firstAbove is the index of the first atom of q above x, given lo, the
// index of the first atom ≥ x, and whether x equals q[lo].
func firstAbove(q []float64, lo int, tie bool) int {
	if !tie {
		return lo
	}
	hi := lo + 1
	for hi < len(q) && q[hi] == q[lo] {
		hi++
	}
	return hi
}

// check runs both statistics for one full window, appending any alarms to
// dst. The KS statistic and the observed PSI pmf are bit-identical to
// KSAgainstPMF and a right-closed binning of the window's values: both are
// the same integer counts divided by the same window length.
func (m *Monitor) check(u, s, k int, cs *cellState, dst []Alarm) ([]Alarm, error) {
	cell := m.plan.Cell(u, k)
	if cell.Degenerate {
		return dst, nil
	}
	grid, pmf := cell.Q, cell.PMF[s]
	if len(grid) != len(pmf) || len(grid) == 0 {
		return dst, errors.New("monitor: grid/pmf mismatch")
	}
	n := float64(cs.n)
	observed := m.psiObs[:len(cs.psiEdges)+1]
	ks, cum := 0.0, 0.0
	var below, atOrBelow, binStart int32 // #{x < Q[i]}, #{x ≤ Q[i]}, #{x ≤ last edge}
	b := 0
	for i := range grid {
		// Just before the atom the reference CDF is cum; at it, cum+pmf[i].
		below += cs.hi[i]
		if d := math.Abs(float64(below)/n - cum); d > ks {
			ks = d
		}
		cum += pmf[i]
		atOrBelow += cs.lo[i]
		if d := math.Abs(float64(atOrBelow)/n - cum); d > ks {
			ks = d
		}
		if b < len(cs.psiEdges) && cs.psiEdges[b] == i {
			observed[b] = float64(atOrBelow-binStart) / n
			binStart = atOrBelow
			b++
		}
	}
	observed[b] = float64(int32(cs.n)-binStart) / n

	// The reference marginal was estimated from n_{R,u,s} research points,
	// so it carries sampling error of its own: the threshold is the
	// two-sample critical value with the research group as the second
	// sample. Without recorded group sizes, fall back to the (stricter)
	// one-sample bound.
	crit := KSOneSampleCritical(cs.n, m.opts.Alpha)
	if cs.nRef > 0 {
		crit = KSCritical(cs.nRef, cs.n, m.opts.Alpha)
	}
	if crit > 0 {
		cs.ksRatio = ks / crit
	}
	if ks > crit {
		dst = append(dst, Alarm{U: u, S: s, K: k, Kind: AlarmKS, Stat: ks, Threshold: crit, Window: cs.n, Seen: m.seen})
	}
	psi, err := PSI(cs.psiExpected, observed)
	if err != nil {
		return dst, err
	}
	// Under the null, PSI on B bins behaves like a scaled χ² with
	// expectation ≈ B·(1/n_window + 1/n_ref): both the window and the
	// research-estimated reference contribute sampling noise. Lift the
	// alarm threshold by twice that expectation so small research groups
	// do not page on their own estimation error.
	thr := m.opts.PSIWarn + 2*float64(psiBinCount)/float64(cs.n)
	if cs.nRef > 0 {
		thr += 2 * float64(psiBinCount) / float64(cs.nRef)
	}
	if thr > 0 {
		cs.psiRatio = psi / thr
	}
	if psi > thr {
		dst = append(dst, Alarm{U: u, S: s, K: k, Kind: AlarmPSI, Stat: psi, Threshold: thr, Window: cs.n, Seen: m.seen})
	}
	return dst, nil
}

// psiBinCount is the number of coarse PSI bins (the industry-standard
// decile convention).
const psiBinCount = 10
