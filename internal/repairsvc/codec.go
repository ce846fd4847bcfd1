package repairsvc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"otfair/internal/core"
	"otfair/internal/dataset"
)

// The repair endpoint is a record-stream transformer, so both wire formats
// are implemented as (input Stream, output sink, finish) triples around the
// request/response bodies. Response headers and the CSV header row are
// written lazily on the first repaired record, so validation errors that
// precede any output (unknown plan, dimension mismatch) still produce clean
// JSON errors.

// csvPipe adapts the dataset CSV layout ("s,u,<features...>").
func (s *Server) csvPipe(w http.ResponseWriter, body io.Reader, plan *core.Plan) (dataset.Stream, func(dataset.Record) error, func() error, error) {
	in, err := dataset.NewCSVStream(body)
	if err != nil {
		return nil, nil, nil, err
	}
	var (
		bw   *bufio.Writer
		line []byte // one reused row buffer
	)
	ensure := func() error {
		if bw != nil {
			return nil
		}
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		bw = bufio.NewWriterSize(w, 4096)
		return dataset.WriteCSVHeader(bw, plan.Names)
	}
	sink := func(rec dataset.Record) error {
		if err := ensure(); err != nil {
			return err
		}
		line = dataset.AppendCSVRecord(line[:0], rec)
		_, err := bw.Write(line)
		return err
	}
	finish := func() error {
		if err := ensure(); err != nil { // header-only response for an empty stream
			return err
		}
		return bw.Flush()
	}
	return in, sink, finish, nil
}

// wireRecord is the NDJSON record shape, identical both directions. A
// missing or null s marks an unknown protected attribute (which the repair
// path rejects — estimate labels first).
type wireRecord struct {
	X []float64 `json:"x"`
	S *int      `json:"s"`
	U int       `json:"u"`
}

// ndjsonStream decodes one wireRecord per line.
type ndjsonStream struct {
	sc   *bufio.Scanner
	dim  int
	line int
}

func (n *ndjsonStream) Dim() int { return n.dim }

func (n *ndjsonStream) Next() (dataset.Record, error) {
	for n.sc.Scan() {
		n.line++
		raw := n.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var wr wireRecord
		if err := json.Unmarshal(raw, &wr); err != nil {
			return dataset.Record{}, fmt.Errorf("repairsvc: ndjson line %d: %w", n.line, err)
		}
		if len(wr.X) != n.dim {
			return dataset.Record{}, fmt.Errorf("repairsvc: ndjson line %d: %d features, want %d", n.line, len(wr.X), n.dim)
		}
		rec := dataset.Record{X: wr.X, U: wr.U, S: dataset.SUnknown}
		if wr.S != nil {
			rec.S = *wr.S
		}
		return rec, nil
	}
	if err := n.sc.Err(); err != nil {
		return dataset.Record{}, err
	}
	return dataset.Record{}, io.EOF
}

// ndjsonPipe adapts newline-delimited JSON records.
func (s *Server) ndjsonPipe(w http.ResponseWriter, body io.Reader, plan *core.Plan) (dataset.Stream, func(dataset.Record) error, func() error, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	in := &ndjsonStream{sc: sc, dim: plan.Dim}
	var bw *bufio.Writer
	enc := (*json.Encoder)(nil)
	ensure := func() {
		if bw != nil {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		bw = bufio.NewWriter(w)
		enc = json.NewEncoder(bw)
	}
	sink := func(rec dataset.Record) error {
		ensure()
		wr := wireRecord{X: rec.X, U: rec.U}
		if rec.S != dataset.SUnknown {
			s := rec.S
			wr.S = &s
		}
		return enc.Encode(wr)
	}
	finish := func() error {
		ensure()
		return bw.Flush()
	}
	return in, sink, finish, nil
}
