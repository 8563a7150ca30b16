package logstore

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/measure"
)

// seedCorpus feeds the fuzzers every round-trip fixture plus degenerate
// inputs, so coverage starts from well-formed logs and mutates outward.
func seedCorpus(f *testing.F, c Codec) {
	for _, l := range []*measure.Log{buildLog(), denseLog()} {
		var buf bytes.Buffer
		if err := c.Encode(&buf, l); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte(csvMagic))
	f.Add([]byte(binaryMagic))
	f.Add([]byte(spillMagic))
}

// fuzzRoundTrip is the shared property: the decoder never panics on
// arbitrary bytes, and any input it accepts re-encodes and re-decodes to a
// deep-equal log (decode∘encode is the identity on the decoder's image).
func fuzzRoundTrip(t *testing.T, c Codec, data []byte) {
	l, err := c.Decode(bytes.NewReader(data))
	if err != nil {
		return // rejecting corrupt input is fine; panicking is not
	}
	var buf bytes.Buffer
	if err := c.Encode(&buf, l); err != nil {
		t.Fatalf("decoded log failed to re-encode: %v", err)
	}
	l2, err := c.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded log failed to decode: %v", err)
	}
	if !reflect.DeepEqual(l, l2) {
		t.Fatal("decode(encode(log)) != log")
	}
}

// FuzzRoundTripCSV also checks that the encoder writes exactly what the
// format's reference writer does, byte for byte.
func FuzzRoundTripCSV(f *testing.F) {
	seedCorpus(f, CSV{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, CSV{}, data)
		l, err := CSV{}.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var got, want bytes.Buffer
		if err := (CSV{}).Encode(&got, l); err != nil {
			t.Fatal(err)
		}
		referenceCSV(&want, l)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("csv encoding diverges from the reference writer:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	})
}

// referenceCSV is the CSV format written the plain way, one fmt call per
// line with its feature IDs joined as strings: the byte-for-byte reference
// for CSV.Encode.
func referenceCSV(w io.Writer, l *measure.Log) {
	fmt.Fprintf(w, "%s%d\n", csvMagic, l.NumFeatures)
	fmt.Fprintf(w, "#domains,%d\n", len(l.Domains))
	for i, d := range l.Domains {
		fmt.Fprintf(w, "#domain,%d,%s,%v\n", i, d, l.Measured[i])
	}
	for _, cs := range sortedCases(l) {
		cl := l.Cases[measure.Case(cs)]
		fmt.Fprintf(w, "#case,%s,%d,%d,%d\n", cs, len(cl.Rounds), cl.Invocations, cl.PagesVisited)
		for round, rl := range cl.Rounds {
			for site, sf := range rl.SiteFeatures {
				if sf == nil {
					continue
				}
				var ids []string
				for id := 0; id < l.NumFeatures; id++ {
					if sf.Get(id) {
						ids = append(ids, strconv.Itoa(id))
					}
				}
				fmt.Fprintf(w, "%s,%d,%d,%s\n", cs, round, site, strings.Join(ids, " "))
			}
		}
	}
}

func FuzzRoundTripBinary(f *testing.F) {
	seedCorpus(f, Binary{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, Binary{}, data)
	})
}

// FuzzReadSpills: the spill replayer never panics on arbitrary bytes.
func FuzzReadSpills(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 100, []string{"a.example", "b.example"})
	if err != nil {
		f.Fatal(err)
	}
	sf := measure.NewBitset(100)
	sf.Set(7)
	w.Append(Observation{Case: measure.CaseDefault, Site: 0, Features: sf, Invocations: 3, Pages: 13})
	w.Fail(1)
	w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte(spillMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadSpills(bytes.NewReader(data))
		if err == nil && l == nil {
			t.Fatal("nil log without error")
		}
	})
}

// FuzzDecodersMatchReference holds every decoder to the byte-at-a-time
// reference it replaced (reference_test.go): on arbitrary bytes, binary
// decode, spill Next, the borrowed spill Scan and CSV decode must each
// produce exactly what the reference produces, or both must fail. The
// binary and spill Next sides read through a one-byte reader, so every
// field straddles a window refill.
func FuzzDecodersMatchReference(f *testing.F) {
	seedCorpus(f, Binary{})
	seedCorpus(f, CSV{})
	for _, l := range []*measure.Log{buildLog(), denseLog()} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, l.NumFeatures, l.Domains)
		if err != nil {
			f.Fatal(err)
		}
		for i, o := range logToObservations(l) {
			if err := w.Append(o); err != nil {
				f.Fatal(err)
			}
			if i%3 == 0 {
				w.Fail(o.Site)
				w.EndSite(o.Site)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := referenceDecodeBinary(bytes.NewReader(data))
		got, gerr := Binary{}.Decode(iotest.OneByteReader(bytes.NewReader(data)))
		if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("binary decode: got (%v), reference (%v)", gerr, werr)
		}

		want, werr = referenceDecodeCSV(bytes.NewReader(data))
		got, gerr = CSV{}.Decode(bytes.NewReader(data))
		if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("csv decode: got (%v), reference (%v)", gerr, werr)
		}

		ref, rerr := readReferenceSpill(data)
		for _, scan := range []bool{false, true} {
			var src io.Reader = bytes.NewReader(data)
			if !scan {
				src = iotest.OneByteReader(src)
			}
			s, err := OpenSpills(src)
			if (err == nil) != (rerr == nil) {
				t.Fatalf("spill header: got (%v), reference (%v)", err, rerr)
			}
			if err != nil {
				continue
			}
			if s.NumFeatures() != ref.numFeatures || !slices.Equal(s.Domains(), ref.domains) {
				t.Fatal("spill header differs from the reference")
			}
			var recs []SpillRecord
			if scan {
				err = s.Scan(func(rec SpillRecord) error {
					if rec.Obs.Features != nil {
						rec.Obs.Features = rec.Obs.Features.Clone()
					}
					recs = append(recs, rec)
					return nil
				})
			} else {
				for {
					var rec SpillRecord
					if rec, err = s.Next(); err != nil {
						break
					}
					recs = append(recs, rec)
				}
				if err == io.EOF {
					err = nil
				}
			}
			if (err != nil) != ref.failed || !reflect.DeepEqual(recs, ref.records) {
				t.Fatalf("spill (scan %v): %d records, error %v; reference %d records, failed %v",
					scan, len(recs), err, len(ref.records), ref.failed)
			}
		}
	})
}
