package main

import (
	"math"
	"strings"
	"testing"

	"otfair/internal/dataset"
)

func sampleRecords() []dataset.Record {
	return []dataset.Record{
		{X: []float64{0.25, -1.5}, S: 0, U: 1},
		{X: []float64{1e-300, 3.141592653589793}, S: 1, U: 0},
		{X: []float64{-0, 2}, S: dataset.SUnknown, U: 1},
	}
}

func cloneRecords(in []dataset.Record) []dataset.Record {
	out := make([]dataset.Record, len(in))
	for i, r := range in {
		r.X = append([]float64(nil), r.X...)
		out[i] = r
	}
	return out
}

func TestCompareRecordsAcceptsIdentical(t *testing.T) {
	if err := compareRecords(cloneRecords(sampleRecords()), sampleRecords()); err != nil {
		t.Fatal(err)
	}
}

// The correctness check must fail when a single record differs in any
// way the wire formats can carry: one ulp of one feature, a label, the
// order, or a missing record.
func TestCompareRecordsFailsOnOneAlteredRecord(t *testing.T) {
	alter := map[string]func([]dataset.Record) []dataset.Record{
		"one ulp": func(r []dataset.Record) []dataset.Record {
			r[1].X[1] = math.Nextafter(r[1].X[1], 4)
			return r
		},
		"signed zero": func(r []dataset.Record) []dataset.Record {
			r[2].X[0] = math.Copysign(0, -1)
			return r
		},
		"s label": func(r []dataset.Record) []dataset.Record {
			r[0].S = 1
			return r
		},
		"u label": func(r []dataset.Record) []dataset.Record {
			r[2].U = 0
			return r
		},
		"order": func(r []dataset.Record) []dataset.Record {
			r[0], r[1] = r[1], r[0]
			return r
		},
		"dropped": func(r []dataset.Record) []dataset.Record { return r[:2] },
	}
	for name, f := range alter {
		if err := compareRecords(f(cloneRecords(sampleRecords())), sampleRecords()); err == nil {
			t.Errorf("%s: altered record passed the check", name)
		}
	}
}

// Both wire formats carry float64 values exactly, so the check can demand
// equal bits after a round trip through the server's codecs.
func TestDecodeResponseRoundTripsBits(t *testing.T) {
	recs := sampleRecords()[:2]
	tab := dataset.MustTable(2, nil)
	if err := tab.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	got, err := decodeResponse("csv", []byte(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := compareRecords(got, recs); err != nil {
		t.Errorf("csv: %v", err)
	}

	in, err := genServeInputs(7, serveSpec{blind: true, perBody: 50, bodies: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err = decodeResponse("ndjson", in.pool.bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := compareRecords(got, in.pool.tables[0].Records()); err != nil {
		t.Errorf("ndjson: %v", err)
	}
}

func TestInputsDependOnSeedOnlyThroughTraffic(t *testing.T) {
	sp := serveSpec{perBody: 20, bodies: 3, checkRequests: 1}
	a, err := genServeInputs(1, sp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := genServeInputs(1, sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genServeInputs(2, sp)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.pool.bodies[2]) != string(again.pool.bodies[2]) {
		t.Error("same seed, different traffic")
	}
	if string(a.pool.bodies[0]) == string(b.pool.bodies[0]) {
		t.Error("different seeds, same traffic")
	}
	if string(a.pool.bodies[0]) == string(a.pool.bodies[1]) {
		t.Error("pool bodies repeat")
	}
	if string(a.researchCSV) != string(b.researchCSV) || string(a.check.bodies[0]) != string(b.check.bodies[0]) {
		t.Error("research set or check request depends on the seed")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 9}, 1, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// Fields after the command name: state ppid pgrp session tty tpgid
	// flags minflt cminflt majflt cmajflt utime stime ...
	raw := []byte("4242 (fair served) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 30 0 0 20 0 9 0\n")
	user, sys, err := parseProcStatCPU(raw)
	if err != nil {
		t.Fatal(err)
	}
	if user != 2.5 || sys != 0.3 {
		t.Errorf("cpu = %v s user, %v s sys; want 2.5, 0.3", user, sys)
	}
	if _, _, err := parseProcStatCPU([]byte("4242 (x) S 1")); err == nil {
		t.Error("short stat line parsed")
	}
}

func TestParseHeapDebug(t *testing.T) {
	raw := []byte("heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 10\n# TotalAlloc = 123456\n# Sys = 99\n# HeapAlloc = 4096\n# HeapSys = 1\n")
	ms, err := parseHeapDebug(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ms.TotalAlloc != 123456 || ms.HeapAlloc != 4096 {
		t.Errorf("got %+v", ms)
	}
	if _, err := parseHeapDebug([]byte("# Alloc = 1\n")); err == nil {
		t.Error("profile without TotalAlloc parsed")
	}
}

func TestEveryLayerIsListedOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range layerUnits {
		if seen[l.name] {
			t.Errorf("%s listed twice", l.name)
		}
		seen[l.name] = true
	}
	for _, st := range stages {
		if !seen["repairsvc.stage."+st+".us_per_record"] {
			t.Errorf("stage %s has no layer metric", st)
		}
	}
}
