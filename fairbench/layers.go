package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"otfair/internal/blind"
	"otfair/internal/blindsvc"
	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/driftwatch"
	"otfair/internal/joint"
	"otfair/internal/monitor"
	"otfair/internal/ot"
	"otfair/internal/planstore"
	"otfair/internal/repairsvc"
	"otfair/internal/rng"
)

// layerUnits lists every per-layer metric of the traced run, in print
// order, with its unit. Each workload prints all of them; a layer its
// traffic never enters reads 0.
var layerUnits = []struct{ name, unit string }{
	{"dataset.csv_decode.us_per_record", "us"},
	{"dataset.validate.us_per_record", "us"},
	{"monitor.observe.us_per_record", "us"},
	{"monitor.alarms", "count"},
	{"driftwatch.observe.us_per_record", "us"},
	{"repairsvc.engine.us_per_record", "us"},
	{"repairsvc.engine_serial.us_per_record", "us"},
	{"repairsvc.engine.alloc_bytes_per_record", "B"},
	{"shardrun.fanout_speedup", "ratio"},
	{"blindsvc.engine.us_per_record", "us"},
	{"blindsvc.imputed_fraction", "ratio"},
	{"blind.posterior.us_per_record", "us"},
	{"repairsvc.stage.admission.us_per_record", "us"},
	{"repairsvc.stage.spool.us_per_record", "us"},
	{"repairsvc.stage.decode.us_per_record", "us"},
	{"repairsvc.stage.shard_execute.us_per_record", "us"},
	{"repairsvc.stage.encode.us_per_record", "us"},
	{"repairsvc.stage.flush.us_per_record", "us"},
	{"repairsvc.request_overhead.us_per_request", "us"},
	{"joint.repair.us_per_record", "us"},
	{"joint.repair.alloc_bytes_per_record", "B"},
	{"joint.empty_row_fallbacks", "count"},
	{"joint.clamped", "count"},
	{"ot.row_conditional.us_per_call", "us"},
	{"rng.new_alias.us_per_call", "us"},
	{"core.design_s", "s"},
	{"blind.calibrate_s", "s"},
	{"planstore.put_ms", "ms"},
	{"joint.design_s", "s"},
	{"repairsvc.bind_ms", "ms"},
	{"ledger.cpu.us_per_record", "us"},
	{"ledger.layers.us_per_record", "us"},
	{"residual.us_per_record", "us"},
	{"obs.trace_overhead_pct", "%"},
	{"host.parallel_capacity", "ratio"},
}

var stages = []string{"admission", "spool", "decode", "shard_execute", "encode", "flush"}

// layerTime is how long each per-record layer is timed for; the traced
// run's layer metrics carry no bound, so a fraction of a second will do.
const layerTime = 300 * time.Millisecond

// residualBound is the share of cpu_us_per_record the ledger's residual
// (HTTP, socket I/O, rolling E windows, server GC not charged to a layer)
// is held to; the ledger line says whether it holds.
const residualBound = 0.3

// emitLayers adds every per-layer metric to o, 0 where v has none.
func emitLayers(o *outcome, v map[string]float64) {
	for _, l := range layerUnits {
		o.add(l.name, v[l.name], l.unit)
	}
	for name := range v {
		if !knownLayer(name) {
			panic("unlisted layer metric " + name)
		}
	}
}

func knownLayer(name string) bool {
	for _, l := range layerUnits {
		if l.name == name {
			return true
		}
	}
	return false
}

// medianOf runs fn k times and returns the median duration in seconds.
func medianOf(k int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < k; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// serveLayers times every layer a serve workload's requests pass through
// by calling its public function in-process on the same inputs, adds the
// server's own stage histograms from the traced pass, and balances the
// ledger against the untraced pass's server CPU per record.
func serveLayers(o *outcome, workDir string, sp serveSpec, in *serveInputs, ref *serveRef, untraced, traced *pass) error {
	v := map[string]float64{}
	records := in.pool.records()
	dim := ref.plan.Dim
	var all []dataset.Record
	for _, t := range in.pool.tables {
		all = append(all, t.Records()...)
	}

	if !sp.blind {
		c, err := measure(layerTime, records, func() error {
			for _, body := range in.pool.bodies {
				s, err := dataset.NewCSVStream(bytes.NewReader(body))
				if err != nil {
					return err
				}
				for {
					if _, err := s.Next(); err == io.EOF {
						break
					} else if err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("csv decode: %w", err)
		}
		v["dataset.csv_decode.us_per_record"] = c.cpuUS()
	}

	c, err := measure(layerTime, records, func() error {
		for _, rec := range all {
			if err := rec.Validate(dim); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	v["dataset.validate.us_per_record"] = c.cpuUS()

	// The monitor is timed once its windows are full, as in a long-lived
	// server; blind records carry no s and return at once.
	mon, err := monitor.New(ref.plan, monitor.Options{})
	if err != nil {
		return err
	}
	observe := func() error {
		for _, rec := range all {
			if _, err := mon.Observe(rec); err != nil {
				return err
			}
		}
		return nil
	}
	if err := observe(); err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	if c, err = measure(layerTime, records, observe); err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	v["monitor.observe.us_per_record"] = c.cpuUS()
	v["monitor.alarms"] = float64(mon.Fired())

	watch := driftwatch.New("fairbench", driftwatch.Config{}, nil)
	if c, err = measure(layerTime, records, func() error {
		for _, rec := range all {
			watch.Observe(rec)
		}
		return nil
	}); err != nil {
		return err
	}
	v["driftwatch.observe.us_per_record"] = c.cpuUS()

	// The engine at the default fan-out and serially; the fan-out speedup
	// is their wall-time ratio. The server runs one P, so its requests
	// reach the serial engine, and that is what the ledger charges.
	ctx := context.Background()
	discard := func(dataset.Record) error { return nil }
	var engineCPU float64
	if !sp.blind {
		run := func(workers int) (cost, error) {
			e, err := repairsvc.NewEngine(ref.plan, repairsvc.Options{Workers: workers})
			if err != nil {
				return cost{}, err
			}
			return measure(layerTime, records, func() error {
				for i, t := range in.pool.tables {
					if _, _, err := e.RepairStreamContext(ctx, rng.New(uint64(i)+1), dataset.NewSliceStream(t), discard); err != nil {
						return err
					}
				}
				return nil
			})
		}
		par, err := run(0)
		if err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		ser, err := run(1)
		if err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		engineCPU = ser.cpuUS()
		v["repairsvc.engine.us_per_record"] = par.cpuUS()
		v["repairsvc.engine_serial.us_per_record"] = ser.cpuUS()
		v["repairsvc.engine.alloc_bytes_per_record"] = par.allocB()
		v["shardrun.fanout_speedup"] = ser.wallUS() / par.wallUS()
	} else {
		var st blind.Stats
		run := func(workers int) (cost, error) {
			e, err := blindsvc.NewEngine(ref.plan, ref.cal, blindsvc.Options{Workers: workers})
			if err != nil {
				return cost{}, err
			}
			return measure(layerTime, records, func() error {
				for i, t := range in.pool.tables {
					_, s, _, err := e.RepairStreamContext(ctx, rng.New(uint64(i)+1), blind.MethodDraw, dataset.NewSliceStream(t), discard)
					if err != nil {
						return err
					}
					st.Merge(s)
				}
				return nil
			})
		}
		par, err := run(0)
		if err != nil {
			return fmt.Errorf("blind engine: %w", err)
		}
		ser, err := run(1)
		if err != nil {
			return fmt.Errorf("blind engine: %w", err)
		}
		engineCPU = ser.cpuUS()
		v["blindsvc.engine.us_per_record"] = par.cpuUS()
		v["blindsvc.imputed_fraction"] = float64(st.Imputed) / float64(st.Records)
		v["shardrun.fanout_speedup"] = ser.wallUS() / par.wallUS()

		bp := ref.cal.QDA().Batch()
		dst := make([]float64, sp.perBody)
		if c, err = measure(layerTime, records, func() error {
			for _, t := range in.pool.tables {
				if err := bp.Posteriors(t.Records(), dst[:t.Len()]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("posterior: %w", err)
		}
		v["blind.posterior.us_per_record"] = c.cpuUS()
	}

	// Set-up layers. Design runs with the cell cache emptied, as a freshly
	// booted server designs (the in-process reference already designed
	// this plan).
	if v["core.design_s"], err = medianOf(3, func() error {
		core.ResetDesignCache()
		_, err := core.Design(in.research, designOptions)
		return err
	}); err != nil {
		return err
	}
	putDir, err := os.MkdirTemp(workDir, "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(putDir)
	i := 0
	put, err := medianOf(3, func() error {
		i++
		st, err := planstore.Open(fmt.Sprintf("%s/%d", putDir, i), planstore.Options{})
		if err != nil {
			return err
		}
		_, _, err = st.Put(ref.plan)
		return err
	})
	if err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	v["planstore.put_ms"] = put * 1e3
	bind, err := medianOf(3, func() error {
		_, err := repairsvc.NewEngine(ref.plan, repairsvc.Options{})
		return err
	})
	if err != nil {
		return err
	}
	v["repairsvc.bind_ms"] = bind * 1e3
	if sp.blind {
		if v["blind.calibrate_s"], err = medianOf(3, func() error {
			_, err := blind.NewCalibration(ref.plan, in.research)
			return err
		}); err != nil {
			return err
		}
	}

	// The server's own stage split, from the traced pass.
	perRecord := func(sec float64) float64 { return sec * 1e6 / float64(traced.records) }
	for _, st := range stages {
		v["repairsvc.stage."+st+".us_per_record"] = perRecord(stageSum(traced, st))
	}
	overhead := stageSum(traced, "admission") + stageSum(traced, "spool") + stageSum(traced, "flush")
	v["repairsvc.request_overhead.us_per_request"] = overhead * 1e6 / float64(traced.requests)

	// The ledger: server CPU per record (untraced) = Σ layers + residual.
	// Decode comes from the CSV layer where it has a public entry point and
	// from the traced stage for NDJSON; encode has no entry point either.
	decode := v["dataset.csv_decode.us_per_record"]
	if sp.blind {
		decode = v["repairsvc.stage.decode.us_per_record"]
	}
	parts := []struct {
		name string
		us   float64
	}{
		{"decode", decode},
		{"validate", v["dataset.validate.us_per_record"]},
		{"monitor", v["monitor.observe.us_per_record"]},
		{"driftwatch", v["driftwatch.observe.us_per_record"]},
		{"engine", engineCPU},
		{"encode", v["repairsvc.stage.encode.us_per_record"]},
		{"request overhead", v["repairsvc.request_overhead.us_per_request"] / float64(sp.perBody)},
	}
	cpu := untraced.cpu * 1e6 / float64(untraced.records)
	tracedCPU := traced.cpu * 1e6 / float64(traced.records)
	sum := 0.0
	for _, p := range parts {
		sum += p.us
		o.note("ledger  %-18s %9.4f us/record", p.name, p.us)
	}
	residual := cpu - sum
	holds := "holds"
	if residual < -residualBound*cpu || residual > residualBound*cpu {
		holds = "EXCEEDS its bound"
	}
	o.note("ledger  %-18s %9.4f us/record", "Σ layers", sum)
	o.note("ledger  %-18s %9.4f us/record (%.1f%% of cpu; bound ±%.0f%%: %s)", "residual", residual, 100*residual/cpu, 100*residualBound, holds)
	o.note("ledger  %-18s %9.4f us/record (untraced server; traced %.4f)", "cpu_us_per_record", cpu, tracedCPU)
	v["ledger.cpu.us_per_record"] = cpu
	v["ledger.layers.us_per_record"] = sum
	v["residual.us_per_record"] = residual
	v["obs.trace_overhead_pct"] = 100 * (tracedCPU - cpu) / cpu
	v["host.parallel_capacity"] = parallelCapacity()
	o.note("shardrun.fanout_speedup %.3f beside host.parallel_capacity %.3f", v["shardrun.fanout_speedup"], v["host.parallel_capacity"])
	emitLayers(o, v)
	return nil
}

// jointLayers times the joint workload's layers: batch repair on fresh
// distinct batches, plan row materialization, and alias construction on
// a full product-support row. Its ledger is joint.repair alone.
func jointLayers(o *outcome, plan *joint.Plan, src *batchSource, seed uint64, designS, cpu float64) error {
	v := map[string]float64{"joint.design_s": designS}
	var batches []*dataset.Table
	for i := 0; i < jointGroup; i++ {
		b, err := src.next()
		if err != nil {
			return err
		}
		batches = append(batches, b)
	}
	rp, err := joint.NewRepairer(plan, rng.New(seed+1))
	if err != nil {
		return err
	}
	c, err := measure(0, jointGroup*jointBatch, func() error {
		for _, b := range batches {
			if _, err := rp.RepairTable(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("joint repair: %w", err)
	}
	diag := rp.Diagnostics()
	v["joint.repair.us_per_record"] = c.cpuUS()
	v["joint.repair.alloc_bytes_per_record"] = c.allocB()
	v["joint.empty_row_fallbacks"] = float64(diag.EmptyRowFallbacks)
	v["joint.clamped"] = float64(diag.Clamped)

	fp, ok := plan.Cells[0].Plans[0].(*ot.FactoredPlan)
	if !ok {
		return fmt.Errorf("joint plan rows are %T, not a factored plan", plan.Cells[0].Plans[0])
	}
	states := plan.Cells[0].States()
	r := rng.New(seed)
	const calls = 64
	rows := make([]int, calls)
	for i := range rows {
		rows[i] = r.IntN(states)
	}
	if c, err = measure(layerTime, calls, func() error {
		for _, i := range rows {
			fp.RowConditional(i)
		}
		return nil
	}); err != nil {
		return err
	}
	v["ot.row_conditional.us_per_call"] = c.cpuUS()

	// A full-width weight row: the conditional of the heaviest source state
	// scattered back onto all product states.
	w := make([]float64, states)
	best, bestMass := 0, -1.0
	for i := 0; i < states; i++ {
		if m := fp.RowMass(i); m > bestMass {
			best, bestMass = i, m
		}
	}
	targets, probs, _ := fp.RowConditional(best)
	for j, t := range targets {
		w[t] = probs[j]
	}
	if c, err = measure(layerTime, 1, func() error {
		rng.NewAlias(w)
		return nil
	}); err != nil {
		return err
	}
	v["rng.new_alias.us_per_call"] = c.cpuUS()

	v["ledger.cpu.us_per_record"] = cpu
	v["ledger.layers.us_per_record"] = v["joint.repair.us_per_record"]
	v["residual.us_per_record"] = cpu - v["joint.repair.us_per_record"]
	v["host.parallel_capacity"] = parallelCapacity()
	o.note("ledger  joint.repair %.3f us/record vs timed-phase cpu %.3f us/record (residual %.3f)", v["joint.repair.us_per_record"], cpu, v["residual.us_per_record"])
	o.note("row %d of %d states carries %d atoms", best, states, len(targets))
	emitLayers(o, v)
	return nil
}
