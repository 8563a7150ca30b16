package logstore

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/measure"
)

// buildLog is the fixture shared by the round-trip tests: several cases,
// several rounds, an unmeasured site, an empty-but-present observation.
func buildLog() *measure.Log {
	l := measure.NewLog(100, []string{"a.example", "b.example", "c.example"})
	l.Record(measure.CaseDefault, 0, 0, map[int]int64{1: 5, 2: 1}, 13)
	l.Record(measure.CaseDefault, 1, 0, map[int]int64{3: 2}, 13)
	l.Record(measure.CaseDefault, 0, 1, map[int]int64{1: 1}, 13)
	l.Record(measure.CaseBlocking, 0, 0, map[int]int64{1: 2}, 13)
	// A visited site that used no features at all (a static page).
	l.Record(measure.CaseBlocking, 0, 1, map[int]int64{}, 13)
	return l
}

// denseLog exercises run encoding: long runs, isolated bits, full rounds.
func denseLog() *measure.Log {
	l := measure.NewLog(1392, []string{"d.example", "e.example"})
	counts := map[int]int64{}
	for f := 0; f < 700; f++ {
		counts[f] = 1 // one long run
	}
	counts[1000] = 3 // an isolated bit
	counts[1391] = 2 // the last bit
	l.Record(measure.CaseDefault, 0, 0, counts, 13)
	l.Record(measure.CaseAdBlock, 2, 1, map[int]int64{0: 1}, 5)
	return l
}

func TestRoundTripDeepEqual(t *testing.T) {
	for _, c := range codecs {
		for name, l := range map[string]*measure.Log{"small": buildLog(), "dense": denseLog()} {
			var buf bytes.Buffer
			if err := c.Encode(&buf, l); err != nil {
				t.Fatalf("%s/%s: encode: %v", c.Name(), name, err)
			}
			got, err := c.Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", c.Name(), name, err)
			}
			if !reflect.DeepEqual(got, l) {
				t.Errorf("%s/%s: round trip not deep-equal", c.Name(), name)
			}
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	l := buildLog()
	for _, c := range codecs {
		var a, b bytes.Buffer
		if err := c.Encode(&a, l); err != nil {
			t.Fatal(err)
		}
		if err := c.Encode(&b, l); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: two encodes of the same log differ", c.Name())
		}
	}
}

func TestDetectAndRead(t *testing.T) {
	l := buildLog()
	for _, c := range codecs {
		var buf bytes.Buffer
		if err := c.Encode(&buf, l); err != nil {
			t.Fatal(err)
		}
		detected, err := Detect(buf.Bytes()[:detectPeek])
		if err != nil {
			t.Fatalf("%s: detect: %v", c.Name(), err)
		}
		if detected.Name() != c.Name() {
			t.Errorf("detected %q, want %q", detected.Name(), c.Name())
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", c.Name(), err)
		}
		if !reflect.DeepEqual(got, l) {
			t.Errorf("%s: auto-detected read not deep-equal", c.Name())
		}
	}
}

func TestDetectUnknownFormatNamesMagicBytes(t *testing.T) {
	_, err := Detect([]byte("PK\x03\x04zipfile"))
	if err == nil {
		t.Fatal("Detect accepted a zip header")
	}
	if !strings.Contains(err.Error(), "unknown log format") || !strings.Contains(err.Error(), `PK\x03\x04`) {
		t.Errorf("error should quote the offending magic bytes, got: %v", err)
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("Read accepted an empty stream")
	}
}

// TestLegacyCSVStillLoads pins backward compatibility: a log file in the
// exact format measure.WriteCSV produced before this package existed must
// load via auto-detection.
func TestLegacyCSVStillLoads(t *testing.T) {
	legacy := "#features,100\n" +
		"#domains,3\n" +
		"#domain,0,a.example,true\n" +
		"#domain,1,b.example,true\n" +
		"#domain,2,c.example,false\n" +
		"#case,blocking,1,2,13\n" +
		"blocking,0,0,1\n" +
		"#case,default,2,9,39\n" +
		"default,0,0,1 2\n" +
		"default,0,1,1\n" +
		"default,1,0,3\n"
	l, err := Read(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy CSV failed to load: %v", err)
	}
	if l.NumFeatures != 100 || len(l.Domains) != 3 || l.Domains[1] != "b.example" {
		t.Fatal("legacy header mislaid")
	}
	if l.Measured[2] || !l.Measured[0] {
		t.Fatal("legacy measured flags mislaid")
	}
	cl := l.Cases[measure.CaseDefault]
	if cl == nil || cl.Invocations != 9 || cl.PagesVisited != 39 || len(cl.Rounds) != 2 {
		t.Fatalf("legacy default case mislaid: %+v", cl)
	}
	u := l.SiteUnion(measure.CaseDefault, 0)
	if u == nil || !u.Get(1) || !u.Get(2) || !u.Get(3) || u.Count() != 3 {
		t.Fatal("legacy observations mislaid")
	}
}

func TestCSVDecodeErrors(t *testing.T) {
	cases := []string{
		"#features,xyz\n",                                                // bad count
		"#features,10\nbogus\n",                                          // bad observation
		"#features,10\n#domains,1\n#domain,5,x,true\n",                   // bad index
		"#features,10\n#domains,1\n#domain,0,x,true\nno,0,0,1\n",         // unknown case
		"#features,10\n#domains,1\n#case,default,1,0,0\nq\n",             // malformed line
		"#features,10\n#domains,1\n#case,default,1,0,0\ndefault,9,0,1\n", // bad round
		"#features,99999999999\n",                                        // implausible corpus
	}
	for _, c := range cases {
		if _, err := (CSV{}).Decode(strings.NewReader(c)); err == nil {
			t.Errorf("Decode(%q) should fail", c)
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	var good bytes.Buffer
	if err := (Binary{}).Encode(&good, buildLog()); err != nil {
		t.Fatal(err)
	}
	data := good.Bytes()
	cases := map[string][]byte{
		"empty":           {},
		"truncated magic": data[:3],
		"wrong magic":     []byte("\xF1XXX1rest"),
		"truncated body":  data[:len(data)-5],
		"truncated mid":   data[:len(data)/2],
	}
	for name, c := range cases {
		if _, err := (Binary{}).Decode(bytes.NewReader(c)); err == nil {
			t.Errorf("%s: Decode should fail", name)
		}
	}
}

// TestHeaderAllocationFollowsBytes feeds a binary log, a spill stream and a
// CSV log whose headers claim about two million domains and then end.
// Decoding must fail having allocated for the bytes present: a []string of
// the claimed length alone is 33.6 MB.
func TestHeaderAllocationFollowsBytes(t *testing.T) {
	claim := []byte{0x01, 0xFE, 0xFF, 0x7F} // 1 feature, then the domain count
	for _, c := range []struct {
		name   string
		data   []byte
		decode func(io.Reader) error
	}{
		{"binary", append([]byte(binaryMagic), claim...), func(r io.Reader) error { _, err := (Binary{}).Decode(r); return err }},
		{"spill", append([]byte(spillMagic), claim...), func(r io.Reader) error { _, err := OpenSpills(r); return err }},
		{"csv", []byte(csvMagic + "1\n#domains,2097152\n"), func(r io.Reader) error { _, err := (CSV{}).Decode(r); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a header with no domain names decoded", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: decoding a %d-byte header allocated %d bytes", c.name, len(c.data), grew)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("protobuf"); err == nil {
		t.Error("ByName accepted an unregistered format")
	}
	if len(Names()) != 2 {
		t.Errorf("Names() = %v, want csv and binary", Names())
	}
}

func TestWriteFileReadFile(t *testing.T) {
	dir := t.TempDir()
	l := buildLog()
	for _, c := range codecs {
		path := filepath.Join(dir, "log-"+c.Name())
		if err := WriteFile(path, c, l); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, l) {
			t.Errorf("%s: file round trip not deep-equal", c.Name())
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "absent")); err == nil {
		t.Error("ReadFile of a missing file should fail")
	}
}
