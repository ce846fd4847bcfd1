package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"otfair/internal/dataset"
)

// compareRecords demands that got reproduce want exactly: same count and
// order, same s and u labels, and the same bits in every feature value.
func compareRecords(got, want []dataset.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.S != w.S || g.U != w.U {
			return fmt.Errorf("record %d: (s,u) = (%d,%d), want (%d,%d)", i, g.S, g.U, w.S, w.U)
		}
		if len(g.X) != len(w.X) {
			return fmt.Errorf("record %d: %d features, want %d", i, len(g.X), len(w.X))
		}
		for k := range w.X {
			if math.Float64bits(g.X[k]) != math.Float64bits(w.X[k]) {
				return fmt.Errorf("record %d feature %d: %v, want %v", i, k, g.X[k], w.X[k])
			}
		}
	}
	return nil
}

// decodeResponse parses a repair response body in the given wire format.
func decodeResponse(format string, body []byte) ([]dataset.Record, error) {
	if format == "csv" {
		t, err := dataset.ReadCSV(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		return t.Records(), nil
	}
	var out []dataset.Record
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var wr wireRecord
		if err := json.Unmarshal(sc.Bytes(), &wr); err != nil {
			return nil, fmt.Errorf("ndjson line %d: %w", len(out)+1, err)
		}
		rec := dataset.Record{X: wr.X, U: wr.U, S: dataset.SUnknown}
		if wr.S != nil {
			rec.S = *wr.S
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// withLabels returns a table of recs carrying the generator's true s, so
// E can be measured on blind traffic that never carried it.
func withLabels(recs []dataset.Record, truth []int) (*dataset.Table, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("no records")
	}
	t, err := dataset.NewTable(len(recs[0].X), nil)
	if err != nil {
		return nil, err
	}
	for i, rec := range recs {
		rec.S = truth[i]
		if err := t.Append(rec); err != nil {
			return nil, err
		}
	}
	return t, nil
}
