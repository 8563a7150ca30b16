package logstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/measure"
)

// encodeBitset runs the program's bitset encoder over b's first n bits.
func encodeBitset(t *testing.T, b measure.Bitset, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := newBinWriter(&buf)
	w.bitset(b, n)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomBitset returns a bitset of the given number of words with each
// of its bits set with probability density.
func randomBitset(rng *rand.Rand, words int, density float64) measure.Bitset {
	b := make(measure.Bitset, words)
	for i := 0; i < words*64; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// TestBitsetRunEncoding round-trips randomized bitsets through the run
// encoder at several densities and widths, including word-boundary shapes,
// widths that are not a multiple of 64, bitsets shorter than the width,
// and bitsets with bits set at or past it. The encoder must write exactly
// the reference's bytes, and the window reader must decode them, a byte
// per refill as readily as from one buffer, to the bitset's first n bits.
func TestBitsetRunEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		n       int
		words   int // the bitset's length; (n+63)/64 is exact
		density float64
	}{
		{1, 1, 1}, {63, 1, 0.5}, {64, 1, 0.5}, {65, 2, 0.5}, {128, 2, 0},
		{1392, 22, 0.04}, {1392, 22, 0.5}, {1392, 22, 0.97}, {1392, 22, 1},
		{200, 4, 0.01}, {10_000, 157, 0.001},
		// Shorter than the width: the missing words read as zeros.
		{130, 1, 0.6}, {1392, 10, 0.9}, {100, 0, 0.5},
		// Bits at or past the width are not encoded.
		{1, 1, 0.9}, {70, 4, 0.7}, {1391, 22, 1}, {64, 3, 1},
	}
	for _, s := range shapes {
		for trial := 0; trial < 20; trial++ {
			b := randomBitset(rng, s.words, s.density)
			got := encodeBitset(t, b, s.n)
			if want := referenceBitset(b, s.n); !bytes.Equal(got, want) {
				t.Fatalf("n=%d words=%d density=%v: encoding\n got %x\nwant %x", s.n, s.words, s.density, got, want)
			}
			want := measure.NewBitset(s.n)
			b.ForEach(s.n, want.Set)
			for _, r := range []*binReader{
				newBytesReader(got),
				newBinReader(bytes.NewReader(got)),
				newBinReader(iotest.OneByteReader(bytes.NewReader(got))),
			} {
				dec, err := r.bitset(s.n)
				if err != nil {
					t.Fatalf("n=%d density=%v: decode: %v", s.n, s.density, err)
				}
				if !reflect.DeepEqual(dec, want) {
					t.Fatalf("n=%d density=%v: bitset round trip mismatch", s.n, s.density)
				}
			}
		}
	}
}

// TestBitsetRunsMatchesNaive pins the word-skipping run encoder, and the
// reference it replaced, against runs found bit by bit.
func TestBitsetRunsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		// Half the trials cover a bitset shorter or longer than n.
		words := (n + 63) / 64
		if trial%2 == 1 {
			words = rng.Intn(words + 2)
		}
		b := randomBitset(rng, words, 0.3)
		var naive [][2]int
		for i := 0; i < n; {
			if !b.Get(i) {
				i++
				continue
			}
			start := i
			for i < n && b.Get(i) {
				i++
			}
			naive = append(naive, [2]int{start, i - start})
		}
		var ref [][2]int
		referenceRuns(b, n, func(start, run int) { ref = append(ref, [2]int{start, run}) })
		if !reflect.DeepEqual(naive, ref) {
			t.Fatalf("n=%d: reference runs mismatch:\nnaive %v\nref   %v", n, naive, ref)
		}
		var want []byte
		prev := 0
		for _, r := range naive {
			head := uint64(r[0]-prev) << 1
			if r[1] == 1 {
				want = append(want, encodeUvarint(head)...)
			} else {
				want = append(want, encodeUvarint(head|1)...)
				want = append(want, encodeUvarint(uint64(r[1]-2))...)
			}
			prev = r[0] + r[1]
		}
		got, runs := appendRuns(nil, b, n)
		if runs != len(naive) || !bytes.Equal(got, want) {
			t.Fatalf("n=%d: %d runs encoded as %x, want %d as %x", n, runs, got, len(naive), want)
		}
		if ref := referenceBitset(b, n); !bytes.Equal(encodeBitset(t, b, n), ref) {
			t.Fatalf("n=%d: encoder diverges from the reference", n)
		}
	}
}

func encodeUvarint(v uint64) []byte {
	var out []byte
	for v >= 0x80 {
		out = append(out, byte(v)|0x80)
		v >>= 7
	}
	return append(out, byte(v))
}
