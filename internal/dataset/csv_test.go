package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// csvWriterRow renders one record the way rows were written before
// AppendCSVRecord: FormatFloat fields through an encoding/csv Writer.
func csvWriterRow(t testing.TB, rec Record) []byte {
	t.Helper()
	row := make([]string, 2+len(rec.X))
	if rec.S != SUnknown {
		row[0] = strconv.Itoa(rec.S)
	}
	row[1] = strconv.Itoa(rec.U)
	for k, v := range rec.X {
		row[2+k] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(row); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// csvEdgeValues are the feature values whose 'g' form is least like a
// plain decimal: signed zeros, subnormals, the extremes of the exponent
// range, NaN and the infinities.
var csvEdgeValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, math.SmallestNonzeroFloat64 * 3,
	2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1), 0.1, -2.5, 40, 1e21, 123456789012345678,
}

func TestAppendCSVRecordMatchesCSVWriter(t *testing.T) {
	var recs []Record
	for _, s := range []int{SUnknown, 0, 1} {
		for _, u := range []int{0, 1} {
			for i, v := range csvEdgeValues {
				w := csvEdgeValues[(i+7)%len(csvEdgeValues)]
				recs = append(recs, Record{X: []float64{v, w}, S: s, U: u})
			}
		}
	}
	recs = append(recs, Record{X: []float64{1}, S: 1, U: 0}, Record{S: SUnknown, U: 1}, Record{X: []float64{-1}, S: -7, U: 12})
	var buf []byte
	for _, rec := range recs {
		buf = AppendCSVRecord(buf[:0], rec)
		if want := csvWriterRow(t, rec); !bytes.Equal(buf, want) {
			t.Errorf("%+v: AppendCSVRecord %q, csv.Writer %q", rec, buf, want)
		}
	}
	// Appending extends dst rather than overwriting it.
	if got := string(AppendCSVRecord([]byte("prefix|"), Record{X: []float64{2}, S: 0, U: 1})); got != "prefix|0,1,2\n" {
		t.Errorf("append onto prefix = %q", got)
	}
}

func TestCSVHeaderQuotesNames(t *testing.T) {
	names := []string{"plain", "a,b", `say "hi"`}
	tbl := MustTable(len(names), names)
	if err := tbl.Append(Record{X: []float64{1, 2, 3}, S: 0, U: 1}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tbl.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	cw.Write(append([]string{"s", "u"}, names...))
	cw.Write([]string{"0", "1", "1", "2", "3"})
	cw.Flush()
	if got.String() != want.String() {
		t.Fatalf("WriteCSV = %q, csv.Writer = %q", got.String(), want.String())
	}
	back, err := ReadCSV(&got)
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range back.Names() {
		if n != names[k] {
			t.Errorf("name %d read back as %q, want %q", k, n, names[k])
		}
	}
}

// csvFixtures are the CSV inputs the tests above and in dataset_test.go
// use, as fuzz seeds.
func csvFixtures(t testing.TB) [][]byte {
	var table bytes.Buffer
	tbl := MustTable(2, []string{"age", "hours"})
	for i, v := range csvEdgeValues {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if err := tbl.Append(Record{X: []float64{v, float64(i)}, S: i%3 - 1, U: i % 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.WriteCSV(&table); err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		table.Bytes(),
		[]byte("s,u,x\n,1,2.5\n?,0,3.5\n"),
		[]byte("s,u,x\n0,0,oops\n"),
		[]byte("s,u,x\n0,0,1,9"),
		[]byte("s,u,x\n7,0,1"),
		[]byte("s,u,x\r\n1, 0, NaN\r\n\r\n0,1,+Inf\r\n"),
		[]byte("s,u,\"a,b\",\"say \"\"hi\"\"\"\n0,1,-0,5e-324\n"),
		[]byte("nope\n"),
		nil,
	}
}

// FuzzCSVStream feeds arbitrary bytes to the CSV stream decoder. It must
// never panic, and every record it yields must survive AppendCSVRecord
// and a second decode bit for bit (any NaN decoding as a NaN).
func FuzzCSVStream(f *testing.F) {
	for _, seed := range csvFixtures(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewCSVStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		header := []byte("s,u")
		for k := 0; k < s.Dim(); k++ {
			header = fmt.Appendf(header, ",x%d", k)
		}
		header = append(header, '\n')
		for {
			rec, err := s.Next()
			if err != nil {
				return // io.EOF or a decode error; either ends the stream
			}
			line := AppendCSVRecord(append([]byte(nil), header...), rec)
			again, err := NewCSVStream(bytes.NewReader(line))
			if err != nil {
				t.Fatalf("re-reading %q: %v", line, err)
			}
			back, err := again.Next()
			if err != nil {
				t.Fatalf("re-reading %q: %v", line, err)
			}
			if back.S != rec.S || back.U != rec.U || len(back.X) != len(rec.X) {
				t.Fatalf("%+v came back as %+v", rec, back)
			}
			for k, v := range rec.X {
				w := back.X[k]
				if math.IsNaN(v) != math.IsNaN(w) || !math.IsNaN(v) && math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("feature %d: %v (%#x) came back as %v (%#x)", k, v, math.Float64bits(v), w, math.Float64bits(w))
				}
			}
			if _, err := again.Next(); err != io.EOF {
				t.Fatalf("re-read of %q has a second row: %v", line, err)
			}
		}
	})
}

// FuzzAppendCSVRecord checks AppendCSVRecord against the encoding/csv
// oracle for arbitrary labels and arbitrary float64 bit patterns (raw is
// read as little-endian 8-byte words).
func FuzzAppendCSVRecord(f *testing.F) {
	for i, v := range csvEdgeValues {
		raw := binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(csvEdgeValues[(i+3)%len(csvEdgeValues)]))
		f.Add(i%3-1, i%2, raw)
	}
	f.Add(-1, 0, []byte(strings.Repeat("\xff", 8)))
	f.Fuzz(func(t *testing.T, s, u int, raw []byte) {
		rec := Record{S: s, U: u, X: make([]float64, len(raw)/8)}
		for k := range rec.X {
			rec.X[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		if got, want := AppendCSVRecord(nil, rec), csvWriterRow(t, rec); !bytes.Equal(got, want) {
			t.Fatalf("%+v: AppendCSVRecord %q, csv.Writer %q", rec, got, want)
		}
	})
}
