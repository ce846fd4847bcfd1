package repairsvc

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/rng"
)

// The NDJSON error-path contract: a request that fails after the response
// has started must abort the connection — the client observes a failed
// transfer, either as an error on the POST itself (nothing flushed yet) or
// as an error reading the body (stream torn mid-transfer) — never a clean,
// complete-looking 200 with silently missing records. A request whose very
// first record is bad fails before any output and gets a clean JSON error
// instead. These tests pin both halves for the three malformation classes:
// a syntactically broken line mid-stream, an oversized record, and a
// record with the wrong feature count.

// ndjsonBody encodes n valid records for the given plan dimension followed
// by the provided raw tail lines.
func ndjsonBody(t *testing.T, dim, n int, tail ...string) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for k := range x {
			x[k] = float64(i%3) + 0.25*float64(k)
		}
		s := i % 2
		if err := enc.Encode(wireRecord{X: x, S: &s, U: (i / 2) % 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, line := range tail {
		buf.WriteString(line + "\n")
	}
	return &buf
}

// postNDJSON sends the body with workers=1 (the serial mode, so records
// sink one at a time and mid-stream failures happen after output started).
// It folds transport- and read-level failures into one error: either means
// the transfer did not complete cleanly.
func postNDJSON(t *testing.T, url string, body io.Reader) (status int, read []byte, err error) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	read, err = io.ReadAll(resp.Body)
	return resp.StatusCode, read, err
}

func TestNDJSONMalformedLineMidStreamAborts(t *testing.T) {
	plan, _, _ := testData(t, 71, 250, 10, 25)
	srv, id := newTestServer(t, plan)
	url := srv.URL + "/v1/repair?plan=" + id + "&seed=1&workers=1&format=ndjson"

	_, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 8, `{"x": [1.0, broken`))
	if err == nil {
		t.Fatalf("malformed mid-stream line returned a clean complete response (%d bytes)", len(read))
	}
	// Whatever arrived before the abort is whole records, never a torn row.
	if len(read) > 0 && !bytes.HasSuffix(bytes.TrimRight(read, "\n"), []byte("}")) {
		t.Error("aborted stream truncated mid-record")
	}
}

func TestNDJSONOversizedRecordAborts(t *testing.T) {
	plan, _, _ := testData(t, 72, 250, 10, 25)
	srv, id := newTestServer(t, plan)
	url := srv.URL + "/v1/repair?plan=" + id + "&seed=1&workers=1&format=ndjson"

	// One line past the scanner's 4 MiB cap.
	huge := `{"x": [0.1, ` + strings.Repeat("0,", 3*1024*1024) + `0.2], "s": 0, "u": 0}`
	_, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 5, huge))
	if err == nil {
		t.Fatalf("oversized record returned a clean complete response (%d bytes)", len(read))
	}

	// The same record as the very first line fails before any output: the
	// client gets a clean JSON error, not a torn stream.
	status, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 0, huge))
	if err != nil {
		t.Fatalf("first-record failure should produce a readable error body: %v", err)
	}
	if status == http.StatusOK {
		t.Fatalf("oversized first record accepted: %s", read)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if uerr := json.Unmarshal(read, &msg); uerr != nil || msg.Error == "" {
		t.Errorf("error body is not the JSON error shape: %q", read)
	}
}

func TestNDJSONMissingColumnAborts(t *testing.T) {
	plan, _, _ := testData(t, 73, 250, 10, 25)
	srv, id := newTestServer(t, plan)
	url := srv.URL + "/v1/repair?plan=" + id + "&seed=1&workers=1&format=ndjson"

	// A record with one feature missing, mid-stream.
	short := `{"x": [0.5], "s": 1, "u": 0}`
	if plan.Dim <= 1 {
		t.Fatal("test scenario needs dim >= 2")
	}
	_, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 6, short))
	if err == nil {
		t.Fatalf("missing-column record returned a clean complete response (%d bytes)", len(read))
	}

	// First line: clean 4xx JSON error.
	status, read, err := postNDJSON(t, url, ndjsonBody(t, plan.Dim, 0, short))
	if err != nil {
		t.Fatal(err)
	}
	if status == http.StatusOK {
		t.Fatalf("missing-column first record accepted: %s", read)
	}
}

// TestServeCSVMatchesCSVWriter pins the CSV sink to the encoding/csv
// rendering it replaced: a workers=1 repair of a plan whose feature names
// need quoting comes back as exactly the bytes a csv.Writer gives for the
// header and the library repair's FormatFloat rows.
func TestServeCSVMatchesCSVWriter(t *testing.T) {
	plan, _, archive := testData(t, 73, 250, 600, 25)
	plan.Names = []string{"hours, weekly", `grade "A"`}
	srv, id := newTestServer(t, plan)
	resp := postCSV(t, srv.URL+"/v1/repair?plan="+id+"&seed=9&workers=1", archive)
	defer resp.Body.Close()
	served, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: %s %v: %s", resp.Status, err, served)
	}

	rp, err := core.NewRepairer(plan, rng.New(9), core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := rp.RepairTable(archive)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	cw.Write(append([]string{"s", "u"}, plan.Names...))
	for _, rec := range repaired.Records() {
		row := []string{"", strconv.Itoa(rec.U)}
		if rec.S != dataset.SUnknown {
			row[0] = strconv.Itoa(rec.S)
		}
		for _, v := range rec.X {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		cw.Write(row)
	}
	cw.Flush()
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("served CSV differs from the csv.Writer rendering (%d vs %d bytes)", len(served), want.Len())
	}
	if !bytes.HasPrefix(served, []byte(`s,u,"hours, weekly","grade ""A"""`+"\n")) {
		t.Errorf("header not quoted: %q", served[:bytes.IndexByte(served, '\n')+1])
	}
}
