package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"otfair/internal/dataset"
	"otfair/internal/rng"
	"otfair/internal/simulate"
)

// researchRecords is n_R, the research-set size every workload designs on.
const researchRecords = 500

// The research set and the check requests are the same in every run:
// a deployment designs once on its one research set, and the quality
// guard (e_ratio) is measured on one fixed request. Only the traffic
// comes from the run's seed. A seeded research set would make set-up
// time and E after repair properties of the draw (design time alone
// swings 0.10-0.14 s across research draws of n_R = 500) rather than of
// the code under test.
const (
	researchSeed  = 0x5eed_0001
	checkDataSeed = 0x5eed_0002
)

// bodySet is a list of request bodies with the records each one decodes
// to (s unknown for blind bodies) and the generator's s for every record,
// which blind bodies do not carry but E needs.
type bodySet struct {
	bodies [][]byte
	tables []*dataset.Table
	truth  [][]int
}

func (bs *bodySet) records() int {
	n := 0
	for _, t := range bs.tables {
		n += t.Len()
	}
	return n
}

// serveInputs is everything a serve workload sends, generated before
// anything is timed: the research set the plan (and blind calibration) is
// designed on, the rotating pool of distinct bodies the timed phase
// sends, and the fixed check requests.
type serveInputs struct {
	researchCSV []byte
	research    *dataset.Table
	pool, check bodySet
}

// wireRecord is fairserved's NDJSON record shape; a blind body omits s.
type wireRecord struct {
	X []float64 `json:"x"`
	S *int      `json:"s,omitempty"`
	U int       `json:"u"`
}

// genServeInputs draws every input of a serve workload from the paper's
// Section V-A scenario, the pool from seed. Labelled bodies are CSV with
// s; blind bodies are NDJSON without it.
func genServeInputs(seed uint64, sp serveSpec) (*serveInputs, error) {
	smp, err := simulate.NewSampler(simulate.Paper())
	if err != nil {
		return nil, err
	}
	research, err := smp.Table(rng.New(researchSeed), researchRecords)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{}
	var buf bytes.Buffer
	if err := research.WriteCSV(&buf); err != nil {
		return nil, err
	}
	in.researchCSV = buf.Bytes()
	// The server designs on the parsed CSV, so the in-process reference
	// does too (the 'g', -1 float format round-trips exactly anyway).
	if in.research, err = dataset.ReadCSV(bytes.NewReader(in.researchCSV)); err != nil {
		return nil, err
	}
	if in.pool, err = genBodies(smp, rng.New(seed), sp, sp.bodies); err != nil {
		return nil, err
	}
	if in.check, err = genBodies(smp, rng.New(checkDataSeed), sp, sp.checkRequests); err != nil {
		return nil, err
	}
	return in, nil
}

func genBodies(smp *simulate.Sampler, r *rng.RNG, sp serveSpec, n int) (bodySet, error) {
	var bs bodySet
	for b := 0; b < n; b++ {
		t, err := smp.Table(r, sp.perBody)
		if err != nil {
			return bs, err
		}
		truth := make([]int, t.Len())
		for i, rec := range t.Records() {
			truth[i] = rec.S
		}
		var buf bytes.Buffer
		if sp.blind {
			t = t.DropS()
			enc := json.NewEncoder(&buf)
			for _, rec := range t.Records() {
				if err := enc.Encode(wireRecord{X: rec.X, U: rec.U}); err != nil {
					return bs, err
				}
			}
		} else if err := t.WriteCSV(&buf); err != nil {
			return bs, err
		}
		bs.bodies = append(bs.bodies, buf.Bytes())
		bs.tables = append(bs.tables, t)
		bs.truth = append(bs.truth, truth)
	}
	return bs, nil
}

// scenario3D extends the paper's scenario with a third feature whose
// group means mirror the first one's, giving the d = 3 joint workload the
// same (u,s) structure as the serve workloads.
func scenario3D() simulate.Scenario {
	sc := simulate.Paper()
	sc.Dim = 3
	means := make(map[dataset.Group][]float64, len(sc.Mean))
	for g, m := range sc.Mean {
		means[g] = []float64{m[0], m[1], -m[0]}
	}
	sc.Mean = means
	return sc
}

// batchSource yields the joint workload's distinct batches from one seeded
// stream, so no batch repeats within a run.
type batchSource struct {
	smp  *simulate.Sampler
	r    *rng.RNG
	size int
}

// newBatchSource returns the seeded traffic source, the fixed check
// source and the fixed research set of the joint workload.
func newBatchSource(seed uint64, size int) (traffic, check *batchSource, research *dataset.Table, err error) {
	smp, err := simulate.NewSampler(scenario3D())
	if err != nil {
		return nil, nil, nil, err
	}
	if research, err = smp.Table(rng.New(researchSeed), jointResearchRecords); err != nil {
		return nil, nil, nil, err
	}
	traffic = &batchSource{smp: smp, r: rng.New(seed), size: size}
	check = &batchSource{smp: smp, r: rng.New(checkDataSeed), size: size}
	return traffic, check, research, nil
}

func (b *batchSource) next() (*dataset.Table, error) {
	t, err := b.smp.Table(b.r, b.size)
	if err != nil {
		return nil, fmt.Errorf("generating batch: %w", err)
	}
	return t, nil
}
