package monitor

import (
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/kde"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// The monitor as it stood before its windows became per-atom counts: a
// float ring per (u,s,k) cell, copied and sorted by KSAgainstPMF on every
// check, and PSI binned by binByEdges over the copied window. Kept verbatim
// (renamed) as the differential oracle for the count-based Monitor.

// oracleCell is one (u,s,k) rolling window of feature values.
type oracleCell struct {
	ring     []float64
	n        int   // filled length (≤ cap)
	next     int   // ring write position
	sinceChk int   // observations since last check
	cooldown int   // observations to skip alarming for
	observed int64 // lifetime observations
	// ksRatio and psiRatio are the statistic/threshold ratios of the most
	// recent check — a continuous drift score (≥ 1 means alarming), kept
	// even when no alarm fires so dashboards and the drift-watch loop can
	// see drift building and, after a recalibration, receding.
	ksRatio, psiRatio float64
}

// oraclePSIRef is the coarse-binned reference one cell's PSI compares against:
// roughly equal-expected-mass bins, the industry convention that keeps the
// index stable at rolling-window sample sizes (fine 50-state bins put ~5
// observations in each and the index never settles).
type oraclePSIRef struct {
	// edges are right-closed upper bounds in feature units; the last bin is
	// unbounded.
	edges    []float64
	expected []float64
}

// oracleMonitor watches a record stream against a designed plan. Not safe for
// concurrent use.
type oracleMonitor struct {
	plan  *core.Plan
	opts  Options
	cells map[[3]int]*oracleCell
	psi   map[[3]int]*oraclePSIRef
	rng   *rng.RNG // nil unless Options.Dither
	seen  int64
	fired int64
}

// newOracle builds a monitor for the plan the deployment repairs with.
func newOracle(plan *core.Plan, opts Options) (*oracleMonitor, error) {
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
	m := &oracleMonitor{
		plan:  plan,
		opts:  opts,
		cells: make(map[[3]int]*oracleCell),
		psi:   make(map[[3]int]*oraclePSIRef),
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
func (m *oracleMonitor) Seen() int64 { return m.seen }

// Fired returns the number of alarms raised so far.
func (m *oracleMonitor) Fired() int64 { return m.fired }

// Snapshot summarizes the monitor's current state. Like every Monitor
// method it must not race Observe; callers serialize access.
func (m *oracleMonitor) Snapshot() Summary {
	s := Summary{Seen: m.seen, Fired: m.fired, WatchedCells: len(m.cells)}
	for _, cs := range m.cells {
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
// the same (u,s,k)-cells the plans are indexed by.
func (m *oracleMonitor) Observe(rec dataset.Record) ([]Alarm, error) {
	if rec.S == dataset.SUnknown {
		return nil, nil
	}
	if rec.S != 0 && rec.S != 1 || rec.U != 0 && rec.U != 1 {
		return nil, fmt.Errorf("monitor: invalid labels (s=%d, u=%d)", rec.S, rec.U)
	}
	if len(rec.X) != m.plan.Dim {
		return nil, fmt.Errorf("monitor: record has %d features, want %d", len(rec.X), m.plan.Dim)
	}
	m.seen++
	var alarms []Alarm
	for k, x := range rec.X {
		key := [3]int{rec.U, rec.S, k}
		cs := m.cells[key]
		if cs == nil {
			cs = &oracleCell{ring: make([]float64, m.opts.Window)}
			m.cells[key] = cs
		}
		if m.rng != nil {
			cell := m.plan.Cell(rec.U, k)
			if h := cell.H[rec.S]; h > 0 && !cell.Degenerate {
				x += h * kde.Sample(m.plan.Opts.Kernel, m.rng)
			}
		}
		cs.ring[cs.next] = x
		cs.next = (cs.next + 1) % len(cs.ring)
		if cs.n < len(cs.ring) {
			cs.n++
		}
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
		a, err := m.check(rec.U, rec.S, k, cs)
		if err != nil {
			return nil, err
		}
		if len(a) > 0 {
			cs.cooldown = m.opts.Cooldown
			m.fired += int64(len(a))
			alarms = append(alarms, a...)
		}
	}
	return alarms, nil
}

// check runs both statistics for one full window.
func (m *oracleMonitor) check(u, s, k int, cs *oracleCell) ([]Alarm, error) {
	cell := m.plan.Cell(u, k)
	if cell.Degenerate {
		return nil, nil
	}
	window := make([]float64, cs.n)
	copy(window, cs.ring[:cs.n])

	var alarms []Alarm
	ks, err := KSAgainstPMF(window, cell.Q, cell.PMF[s])
	if err != nil {
		return nil, err
	}
	// The reference marginal was estimated from n_{R,u,s} research points,
	// so it carries sampling error of its own: the threshold is the
	// two-sample critical value with the research group as the second
	// sample. Without recorded group sizes, fall back to the (stricter)
	// one-sample bound.
	crit := KSOneSampleCritical(cs.n, m.opts.Alpha)
	if nRef := m.plan.GroupSizes[dataset.Group{U: u, S: s}]; nRef > 0 {
		crit = KSCritical(nRef, cs.n, m.opts.Alpha)
	}
	if crit > 0 {
		cs.ksRatio = ks / crit
	}
	if ks > crit {
		alarms = append(alarms, Alarm{U: u, S: s, K: k, Kind: AlarmKS, Stat: ks, Threshold: crit, Window: cs.n, Seen: m.seen})
	}
	ref := m.psiRef(u, s, k, cell)
	observed := binByEdges(window, ref.edges)
	psi, err := PSI(ref.expected, observed)
	if err != nil {
		return nil, err
	}
	// Under the null, PSI on B bins behaves like a scaled χ² with
	// expectation ≈ B·(1/n_window + 1/n_ref): both the window and the
	// research-estimated reference contribute sampling noise. Lift the
	// alarm threshold by twice that expectation so small research groups
	// do not page on their own estimation error.
	thr := m.opts.PSIWarn + 2*float64(psiBinCount)/float64(cs.n)
	if nRef := m.plan.GroupSizes[dataset.Group{U: u, S: s}]; nRef > 0 {
		thr += 2 * float64(psiBinCount) / float64(nRef)
	}
	if thr > 0 {
		cs.psiRatio = psi / thr
	}
	if psi > thr {
		alarms = append(alarms, Alarm{U: u, S: s, K: k, Kind: AlarmPSI, Stat: psi, Threshold: thr, Window: cs.n, Seen: m.seen})
	}
	return alarms, nil
}

// psiRef builds (and caches) the coarse equal-mass binning of one cell's
// design pmf.
func (m *oracleMonitor) psiRef(u, s, k int, cell *core.Cell) *oraclePSIRef {
	key := [3]int{u, s, k}
	if ref := m.psi[key]; ref != nil {
		return ref
	}
	ref := &oraclePSIRef{}
	cum, binMass := 0.0, 0.0
	bin := 1
	for i, p := range cell.PMF[s] {
		cum += p
		binMass += p
		if cum >= float64(bin)/psiBinCount && bin < psiBinCount && i < len(cell.Q)-1 {
			ref.edges = append(ref.edges, cell.Q[i])
			ref.expected = append(ref.expected, binMass)
			binMass = 0
			bin++
		}
	}
	ref.expected = append(ref.expected, binMass)
	m.psi[key] = ref
	return ref
}

// binByEdges histograms a sample into the right-closed bins bounded by
// edges (last bin unbounded) and normalizes to a pmf.
func binByEdges(sample, edges []float64) []float64 {
	counts := make([]float64, len(edges)+1)
	for _, x := range sample {
		b := 0
		for b < len(edges) && x > edges[b] {
			b++
		}
		counts[b]++
	}
	for i := range counts {
		counts[i] /= float64(len(sample))
	}
	return counts
}

// differentialPlans designs the plans the oracle comparison runs on: the
// paper scenario as designed, the same plan without recorded research
// group sizes (the one-sample KS bound and unlifted PSI threshold), and a
// plan whose feature 1 is constant for u = 1, so cell (u=1, k=1) is
// degenerate while its neighbours are not.
func differentialPlans(t *testing.T) map[string]*core.Plan {
	t.Helper()
	paper, _ := designPaperPlan(t, 21, 800)
	noSizes := *paper
	noSizes.GroupSizes = nil
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	research, _, err := sampler.ResearchArchive(rng.New(22), 800, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range research.Records() {
		if rec.U == 1 {
			rec.X[1] = 42
		}
	}
	degenerate, err := core.Design(research, core.Options{NQ: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !degenerate.Cell(1, 1).Degenerate || degenerate.Cell(0, 1).Degenerate {
		t.Fatal("constant feature did not give exactly one degenerate cell")
	}
	return map[string]*core.Plan{"paper": paper, "no-group-sizes": &noSizes, "degenerate": degenerate}
}

// differentialRecords draws n paper-scenario records, drifting the
// (u=0, s=1) group by 1.5σ over the stream when drift is set. A fifth of
// the features are snapped exactly onto a grid atom of their cell, and a
// few land below Q[0] or above Q[NQ-1], so ties and out-of-grid values
// are exercised on every window.
func differentialRecords(t *testing.T, plan *core.Plan, seed uint64, n int, drift bool) []dataset.Record {
	t.Helper()
	r := rng.New(seed)
	sampler, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		t.Fatal(err)
	}
	next := func() (dataset.Record, error) { return sampler.Draw(r), nil }
	if drift {
		ds, err := simulate.NewDriftStream(simulate.Paper(), r.Split(1), simulate.Drift{
			Group: map[dataset.Group][]float64{{U: 0, S: 1}: {1.5, 1.5}},
		}, n)
		if err != nil {
			t.Fatal(err)
		}
		next = ds.Next
	}
	recs := make([]dataset.Record, 0, n)
	for len(recs) < n {
		rec, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), rec.X...)
		for k := range x {
			q := plan.Cell(rec.U, k).Q
			switch v := r.Float64(); {
			case v < 0.2:
				x[k] = q[r.IntN(len(q))]
			case v < 0.23:
				x[k] = q[0] - r.Float64()
			case v < 0.26:
				x[k] = q[len(q)-1] + r.Float64()
			}
		}
		recs = append(recs, dataset.Record{X: x, S: rec.S, U: rec.U})
	}
	return recs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameAlarms(a, b []Alarm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.U != y.U || x.S != y.S || x.K != y.K || x.Kind != y.Kind || x.Window != y.Window || x.Seen != y.Seen ||
			!sameBits(x.Stat, y.Stat) || !sameBits(x.Threshold, y.Threshold) {
			return false
		}
	}
	return true
}

func sameSummary(a, b Summary) bool {
	return a.Seen == b.Seen && a.Fired == b.Fired && a.WatchedCells == b.WatchedCells && a.FullWindows == b.FullWindows &&
		sameBits(a.MaxKSRatio, b.MaxKSRatio) && sameBits(a.MaxPSIRatio, b.MaxPSIRatio)
}

// TestMonitorMatchesOracle pins the count-based monitor to the sorted-window
// one it replaced: after every record the alarms (every field, statistics
// bit for bit), the fired count, the snapshot and every cell's KS and PSI
// drift ratios must be identical.
func TestMonitorMatchesOracle(t *testing.T) {
	plans := differentialPlans(t)
	var alarms int64
	for _, name := range []string{"paper", "no-group-sizes", "degenerate"} {
		plan := plans[name]
		for _, window := range []int{8, 37, 256} {
			for _, dither := range []bool{false, true} {
				for _, drift := range []bool{false, true} {
					opts := Options{Window: window, Dither: dither, Seed: 7}
					recs := differentialRecords(t, plan, uint64(window)*10+1, 6000, drift)
					t.Run(fmt.Sprintf("%s/w%d/dither=%v/drift=%v", name, window, dither, drift), func(t *testing.T) {
						alarms += diffAgainstOracle(t, plan, opts, recs)
					})
				}
			}
		}
	}
	// The comparison means little unless alarms were actually raised.
	if alarms < 10 {
		t.Errorf("only %d alarms across all runs", alarms)
	}
}

// diffAgainstOracle feeds recs to both monitors, comparing after every
// record, and returns the alarms raised.
func diffAgainstOracle(t *testing.T, plan *core.Plan, opts Options, recs []dataset.Record) int64 {
	m, err := New(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	for i, rec := range recs {
		got, err := m.Observe(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := o.Observe(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAlarms(got, want) {
			t.Fatalf("record %d: alarms %v, oracle %v", i, got, want)
		}
		if m.Fired() != o.Fired() {
			t.Fatalf("record %d: fired %d, oracle %d", i, m.Fired(), o.Fired())
		}
		if gs, ws := m.Snapshot(), o.Snapshot(); !sameSummary(gs, ws) {
			t.Fatalf("record %d: snapshot %+v, oracle %+v", i, gs, ws)
		}
		for u := 0; u < 2; u++ {
			for s := 0; s < 2; s++ {
				for k := 0; k < plan.Dim; k++ {
					cs, ocs := m.cells[(u*2+s)*plan.Dim+k], o.cells[[3]int{u, s, k}]
					if (cs == nil) != (ocs == nil) {
						t.Fatalf("record %d: cell (%d,%d,%d) watched %v, oracle %v", i, u, s, k, cs != nil, ocs != nil)
					}
					if ocs == nil {
						continue
					}
					if cs.n != ocs.n || cs.observed != ocs.observed || !sameBits(cs.ksRatio, ocs.ksRatio) || !sameBits(cs.psiRatio, ocs.psiRatio) {
						t.Fatalf("record %d: cell (%d,%d,%d) n=%d ks=%v psi=%v, oracle n=%d ks=%v psi=%v",
							i, u, s, k, cs.n, cs.ksRatio, cs.psiRatio, ocs.n, ocs.ksRatio, ocs.psiRatio)
					}
					checked = checked || cs.ksRatio > 0
				}
			}
		}
	}
	if !checked {
		t.Fatal("no cell was ever checked")
	}
	return m.Fired()
}
