package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"otfair/internal/dataset"
	"otfair/internal/fairmetrics"
	"otfair/internal/joint"
	"otfair/internal/rng"
)

const (
	// jointResearchRecords is the research-set size of the d = 3 design.
	jointResearchRecords = 600
	// jointBatch is the number of records per RepairTable call.
	jointBatch = 1000
	// jointCheckBatches is the size of the fixed check set, in batches.
	jointCheckBatches = 5
	// jointGroup is how many batches are generated ahead, outside the
	// clock, between stretches of timed repair.
	jointGroup = 10
)

// jointOptions is the d = 3, NQ = 20 design: 8 000 product states per u.
var jointOptions = joint.Options{NQ: 20}

// jointSetup designs the plan and binds a repairer, then repairs a warm-up
// batch; it returns the repairer and the design and total times.
func jointSetup(research, warm *dataset.Table, seed uint64) (*joint.Plan, *joint.Repairer, float64, float64, error) {
	start := time.Now()
	plan, err := joint.Design(research, jointOptions)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	design := time.Since(start).Seconds()
	rp, err := joint.NewRepairer(plan, rng.New(seed))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if _, err := rp.RepairTable(warm); err != nil {
		return nil, nil, 0, 0, err
	}
	return plan, rp, design, time.Since(start).Seconds(), nil
}

// driveJoint is the timed phase: one long-lived repairer over successive
// distinct batches, each batch one request of the pass. The clock, CPU
// and allocation counts run only around the repair calls.
func driveJoint(rp *joint.Repairer, src *batchSource, d time.Duration) (*pass, error) {
	p := &pass{}
	var ms runtime.MemStats
	var wall, cpu time.Duration
	for wall < d {
		group := make([]*dataset.Table, jointGroup)
		for i := range group {
			b, err := src.next()
			if err != nil {
				return nil, err
			}
			group[i] = b
		}
		runtime.ReadMemStats(&ms)
		alloc0, cpu0 := ms.TotalAlloc, selfCPU()
		for _, b := range group {
			t0 := time.Now()
			out, err := rp.RepairTable(b)
			el := time.Since(t0)
			p.requests++
			wall += el
			if err != nil || out.Len() != b.Len() {
				p.failed++
				continue
			}
			p.latency = append(p.latency, el.Seconds())
			p.records += out.Len()
			if wall >= d {
				break
			}
		}
		cpu += selfCPU() - cpu0
		runtime.ReadMemStats(&ms)
		p.alloc += ms.TotalAlloc - alloc0
	}
	p.wall, p.cpu = wall.Seconds(), cpu.Seconds()
	// Twice, so sync.Pool victims are freed too (see drive).
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.liveHeap = ms.HeapAlloc
	return p, nil
}

// checkJoint repairs set twice with fresh repairers at seed: batch by
// batch through RepairTable (the timed path) and as one stream through
// RepairStream. Both must agree record for record. It returns the input
// and repaired tables.
func checkJoint(plan *joint.Plan, set []*dataset.Table, seed uint64) (orig, repaired *dataset.Table, err error) {
	a, err := joint.NewRepairer(plan, rng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	orig = dataset.MustTable(plan.Dim, nil)
	repaired = dataset.MustTable(plan.Dim, nil)
	for _, b := range set {
		out, err := a.RepairTable(b)
		if err != nil {
			return nil, nil, err
		}
		if err := errors.Join(repaired.AppendAll(out.Records()), orig.AppendAll(b.Records())); err != nil {
			return nil, nil, err
		}
	}
	if n := a.Diagnostics().Repaired; int(n) != orig.Len() {
		return nil, nil, fmt.Errorf("repairer counted %d records, want %d", n, orig.Len())
	}
	b, err := joint.NewRepairer(plan, rng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	var want []dataset.Record
	if _, err := b.RepairStream(dataset.NewSliceStream(orig), func(rec dataset.Record) error {
		want = append(want, rec)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if err := compareRecords(repaired.Records(), want); err != nil {
		return nil, nil, fmt.Errorf("joint batch repair differs from stream repair: %w", err)
	}
	return orig, repaired, nil
}

// checkJointRun checks the fixed check set and the first seeded batch,
// and returns EJoint(repaired)/EJoint(original) over the fixed set.
func checkJointRun(plan *joint.Plan, fixed []*dataset.Table, seeded *dataset.Table) (float64, error) {
	if _, _, err := checkJoint(plan, []*dataset.Table{seeded}, checkSeed-1); err != nil {
		return 0, err
	}
	orig, repaired, err := checkJoint(plan, fixed, checkSeed)
	if err != nil {
		return 0, err
	}
	e0, err := fairmetrics.EJoint(orig, fairmetrics.JointConfig{})
	if err != nil {
		return 0, err
	}
	e1, err := fairmetrics.EJoint(repaired, fairmetrics.JointConfig{})
	if err != nil {
		return 0, err
	}
	return e1 / e0, nil
}

// runJoint runs the library joint-repair workload in this process: there
// is no server, so CPU and heap are this process's, measured around the
// repair calls only.
func runJoint(cfg config) (*outcome, error) {
	src, checkSrc, research, err := newBatchSource(cfg.seed, jointBatch)
	if err != nil {
		return nil, err
	}
	var checkSet []*dataset.Table
	for i := 0; i < jointCheckBatches; i++ {
		b, err := checkSrc.next()
		if err != nil {
			return nil, err
		}
		checkSet = append(checkSet, b)
	}
	warm, err := src.next()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	boots := setupBootsBefore
	d := seconds(cfg.seconds)
	if cfg.trace {
		boots, d = 3, d/2
	}
	var (
		plan           *joint.Plan
		rp             *joint.Repairer
		designs, setup []float64
	)
	for b := 0; b < boots; b++ {
		var ds, ts float64
		if plan, rp, ds, ts, err = jointSetup(research, warm, cfg.seed); err != nil {
			return nil, err
		}
		designs = append(designs, ds)
		setup = append(setup, ts)
	}
	p, err := driveJoint(rp, src, d)
	if err != nil {
		return nil, err
	}
	if len(p.latency) == 0 {
		return nil, fmt.Errorf("no batch succeeded in the timed phase")
	}
	// The check set (the fixed batches and the first seeded one) counts as
	// attempted too.
	o.attempted, o.failed = p.requests+jointCheckBatches+1, p.failed
	p.eRatio, err = checkJointRun(plan, checkSet, warm)
	o.problem(err)
	o.note("pass: %d batches (%d failed), %d records in %.3fs; cpu %.3fs", p.requests, p.failed, p.records, p.wall, p.cpu)
	if cfg.trace {
		return o, jointLayers(o, plan, src, cfg.seed, median(designs), p.cpu*1e6/float64(p.records))
	}
	for b := boots; b < setupBoots; b++ {
		_, _, _, ts, err := jointSetup(research, warm, cfg.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, ts)
	}
	o.note("setup runs (s): %v", setup)
	o.note("host.parallel_capacity %.3f (2-goroutine / 1-goroutine spin)", parallelCapacity())
	addEndToEnd(o, p, median(setup))
	return o, nil
}
