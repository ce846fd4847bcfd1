package rng

import (
	"encoding/binary"
	"math"
	"testing"
)

// voseOracle is the allocating Vose construction NewAlias used before
// tables could be rebuilt in place, kept verbatim as the reference Reset
// must reproduce bit for bit.
func voseOracle(w []float64) *Alias {
	n := len(w)
	if n == 0 {
		panic("rng: NewAlias called with empty weights")
	}
	total := 0.0
	for _, wi := range w {
		if wi < 0 || math.IsNaN(wi) {
			panic("rng: NewAlias called with negative or NaN weight")
		}
		total += wi
	}
	if total <= 0 {
		panic("rng: NewAlias called with zero total mass")
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	if n == 1 {
		a.prob[0] = 1
		return a
	}
	scaled := make([]float64, n)
	for i, wi := range w {
		scaled[i] = wi * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]

		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// aliasCases are the weight vectors the table tests and the fuzz corpus
// share: random, single-category, all-equal, one dominant atom, and
// vectors whose scaled masses leave round-off residue in the worklists.
func aliasCases() map[string][]float64 {
	r := New(51)
	random := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64()
		}
		return w
	}
	dominant := make([]float64, 64)
	for i := range dominant {
		dominant[i] = 1e-17
	}
	dominant[40] = 1
	thirds := make([]float64, 30)
	for i := range thirds {
		thirds[i] = 1.0 / 3
	}
	tenths := make([]float64, 17)
	for i := range tenths {
		tenths[i] = 0.1 * float64(i%3+1)
	}
	return map[string][]float64{
		"random-5":    random(5),
		"random-97":   random(97),
		"random-1000": random(1000),
		"single":      {3.5},
		"equal-8":     {2, 2, 2, 2, 2, 2, 2, 2},
		"dominant":    dominant,
		"with-zeros":  {0.1, 0, 0.4, 0, 0.5},
		"thirds":      thirds,
		"tenths":      tenths,
		"tiny-scale":  {1e-300, 3e-300, 2e-300},
		"huge-scale":  {1e300, 1e299, 5e299},
	}
}

// sameTable reports whether two tables are bit-identical.
func sameTable(a, b *Alias) bool {
	if len(a.prob) != len(b.prob) || len(a.alias) != len(b.alias) {
		return false
	}
	for i := range a.prob {
		if math.Float64bits(a.prob[i]) != math.Float64bits(b.prob[i]) || a.alias[i] != b.alias[i] {
			return false
		}
	}
	return true
}

func TestAliasResetMatchesOracle(t *testing.T) {
	for name, w := range aliasCases() {
		want := voseOracle(w)
		if got := NewAlias(w); !sameTable(got, want) {
			t.Errorf("%s: NewAlias differs from the reference construction", name)
		}
		var a Alias
		a.Reset(w, nil)
		if !sameTable(&a, want) {
			t.Errorf("%s: Reset differs from the reference construction", name)
		}
	}
}

// TestAliasResetReusesTable rebuilds one table while n shrinks and grows:
// every rebuild must equal a fresh construction, and once the buffers are
// large enough no rebuild allocates.
func TestAliasResetReusesTable(t *testing.T) {
	r := New(53)
	sizes := []int{40, 3, 1, 17, 40, 2, 33, 1, 39}
	var a Alias
	var stack []int
	for _, n := range sizes {
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64()
		}
		w[r.IntN(n)] += 1 // keep the total positive
		stack = a.Reset(w, stack)
		if !sameTable(&a, voseOracle(w)) {
			t.Fatalf("n=%d: reused table differs from the reference construction", n)
		}
		if a.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, a.Len())
		}
	}
	w := aliasCases()["random-5"]
	if allocs := testing.AllocsPerRun(100, func() { stack = a.Reset(w, stack) }); allocs != 0 {
		t.Fatalf("warm Reset allocated %v times, want 0", allocs)
	}
}

func TestAliasResetPanicsOnInvalidWeights(t *testing.T) {
	cases := []struct {
		w    []float64
		want string
	}{
		{nil, "rng: NewAlias called with empty weights"},
		{[]float64{0.5, -0.1}, "rng: NewAlias called with negative or NaN weight"},
		{[]float64{0.5, math.NaN()}, "rng: NewAlias called with negative or NaN weight"},
		{[]float64{0, 0, 0}, "rng: NewAlias called with zero total mass"},
	}
	for _, c := range cases {
		for _, build := range []func(){
			func() { NewAlias(c.w) },
			func() { var a Alias; a.Reset(c.w, nil) },
		} {
			func() {
				defer func() {
					got, _ := recover().(string)
					if got != c.want {
						t.Errorf("weights %v: panic %q, want %q", c.w, got, c.want)
					}
				}()
				build()
			}()
		}
	}
	// A rejected rebuild leaves the previous table intact.
	a := NewAlias([]float64{1, 2, 3})
	want := voseOracle([]float64{1, 2, 3})
	func() {
		defer func() { _ = recover() }()
		a.Reset([]float64{1, -1, 3}, nil)
	}()
	if !sameTable(a, want) {
		t.Fatal("a rejected Reset modified the table")
	}
}

// FuzzAliasReset drives Reset with arbitrary finite, non-negative weights
// of positive sum: it must not panic, a table reused across rebuilds must
// equal a fresh NewAlias, and draws must stay in range.
func FuzzAliasReset(f *testing.F) {
	for _, w := range aliasCases() {
		f.Add(encodeWeights(w), uint64(len(w)))
	}
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		w := decodeWeights(raw)
		total := 0.0
		for _, wi := range w {
			total += wi
		}
		if !(total > 0) {
			t.Skip()
		}
		// A table first built from a different-length vector, then reused.
		var a Alias
		stack := a.Reset([]float64{1, 2, 3, 4, 5, 6, 7}, nil)
		stack = a.Reset(w, stack)
		if !sameTable(&a, NewAlias(w)) {
			t.Fatalf("reused table differs from NewAlias for %v", w)
		}
		if len(stack) < len(w) {
			t.Fatalf("stack of %d slots for %d weights", len(stack), len(w))
		}
		r := New(seed)
		for i := 0; i < 64; i++ {
			if d := a.Draw(r); d < 0 || d >= len(w) {
				t.Fatalf("Draw returned %d outside [0, %d)", d, len(w))
			}
		}
	})
}

// encodeWeights and decodeWeights map weight vectors to and from the fuzz
// corpus's byte strings: 8 bytes per weight, little-endian IEEE-754 bits,
// with the sign bit cleared and NaN/Inf patterns dropped on decode so every
// decoded weight is finite and non-negative.
func encodeWeights(w []float64) []byte {
	out := make([]byte, 0, 8*len(w))
	for _, x := range w {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

func decodeWeights(raw []byte) []float64 {
	var w []float64
	for ; len(raw) >= 8; raw = raw[8:] {
		x := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			w = append(w, x)
		}
	}
	return w
}
