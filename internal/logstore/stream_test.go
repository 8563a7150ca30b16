package logstore

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/iotest"

	"repro/internal/measure"
)

// logObservations flattens a log into per-visit observations, attributing
// each cell's invocations evenly (the tests only need totals to match).
func logToObservations(l *measure.Log) []Observation {
	var obs []Observation
	for cs, cl := range l.Cases {
		cells := 0
		for _, rl := range cl.Rounds {
			for _, sf := range rl.SiteFeatures {
				if sf != nil {
					cells++
				}
			}
		}
		seen := 0
		for round, rl := range cl.Rounds {
			for site, sf := range rl.SiteFeatures {
				if sf == nil {
					continue
				}
				seen++
				inv := cl.Invocations / int64(cells)
				if seen == cells {
					inv = cl.Invocations - inv*int64(cells-1)
				}
				pages := cl.PagesVisited / int64(cells)
				if seen == cells {
					pages = cl.PagesVisited - pages*int64(cells-1)
				}
				obs = append(obs, Observation{
					Case: cs, Round: round, Site: site,
					Features: sf, Invocations: inv, Pages: int(pages),
				})
			}
		}
	}
	return obs
}

func TestSpillRoundTrip(t *testing.T) {
	l := buildLog()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, l.NumFeatures, l.Domains)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range logToObservations(l) {
		if err := w.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	// Site 2 was never visited in the fixture; fail it to exercise the
	// failure path (measured must stay false).
	if err := w.Fail(2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadSpills(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("spill replay not deep-equal to the source log")
	}

	// Spill files are self-identifying: Read handles them transparently.
	got2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, l) {
		t.Error("auto-detected spill read not deep-equal")
	}
}

// TestSpillFailureUnmeasures pins the failed-site semantics: a site with
// observations and a later failed visit is unmeasurable, as in the
// survey engine's log.
func TestSpillFailureUnmeasures(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 10, []string{"x.example"})
	if err != nil {
		t.Fatal(err)
	}
	sf := measure.NewBitset(10)
	sf.Set(3)
	if err := w.Append(Observation{Case: measure.CaseDefault, Site: 0, Features: sf, Invocations: 1, Pages: 13}); err != nil {
		t.Fatal(err)
	}
	if err := w.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := ReadSpills(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Measured[0] {
		t.Error("failed site reported measured")
	}
	if u := l.SiteUnion(measure.CaseDefault, 0); u == nil || !u.Get(3) {
		t.Error("observation before the failure was lost")
	}
}

// TestSpillMergeAcrossFiles splits a log's observations over three spill
// files (as three pipeline shards would) and requires the merged log to be
// deep-equal to the source.
func TestSpillMergeAcrossFiles(t *testing.T) {
	l := denseLog()
	dir := t.TempDir()
	obs := logToObservations(l)
	paths := []string{
		filepath.Join(dir, "shard-0.spill"),
		filepath.Join(dir, "shard-1.spill"),
		filepath.Join(dir, "shard-2.spill"),
	}
	writers := make([]*Writer, len(paths))
	for i, p := range paths {
		w, err := Create(p, l.NumFeatures, l.Domains)
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = w
	}
	for i, o := range obs {
		if err := writers[i%len(writers)].Append(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadSpillFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Error("multi-file spill merge not deep-equal to the source log")
	}
}

func TestSpillHeaderMismatchRejected(t *testing.T) {
	spill := func(numFeatures int, domains ...string) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, numFeatures, domains)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		return buf.Bytes()
	}
	a := spill(10, "x.example")
	if _, err := ReadSpills(bytes.NewReader(a), bytes.NewReader(spill(20, "x.example"))); err == nil {
		t.Error("merge across corpus sizes should fail")
	}
	// Same shape, different site list: a different study (e.g. another
	// generation seed) whose visits must never merge.
	if _, err := ReadSpills(bytes.NewReader(a), bytes.NewReader(spill(10, "y.example"))); err == nil {
		t.Error("merge across different domain lists should fail")
	}
}

// TestSpillReplayBoundsCells: a tiny hostile spill declaring a huge round
// number must be rejected, not turned into a multi-gigabyte EnsureRound
// allocation.
func TestSpillReplayBoundsCells(t *testing.T) {
	domains := make([]string, 10_000)
	for i := range domains {
		domains[i] = "s.example"
	}
	var buf bytes.Buffer
	w := newBinWriter(&buf)
	w.bytes([]byte(spillMagic))
	w.uvarint(uint64(100))
	w.uvarint(uint64(len(domains)))
	for _, d := range domains {
		w.str(d)
	}
	w.bytes([]byte{byte(SpillObservation)})
	w.str(string(measure.CaseDefault))
	w.uvarint(uint64(maxRounds - 1)) // round bomb: 16k rounds × 10k sites
	w.uvarint(0)                     // site
	w.uvarint(0)                     // invocations
	w.uvarint(0)                     // pages
	w.uvarint(0)                     // empty bitset
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpills(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("round-bomb spill accepted")
	}
}

func TestSpillWriterConcurrent(t *testing.T) {
	var buf syncBuffer
	w, err := NewWriter(&buf, 64, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sf := measure.NewBitset(64)
				sf.Set((g*50 + i) % 64)
				w.Append(Observation{
					Case: measure.CaseDefault, Round: g, Site: i % 4,
					Features: sf, Invocations: 1, Pages: 1,
				})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := ReadSpills(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("concurrently written spill unreadable: %v", err)
	}
	cl := l.Cases[measure.CaseDefault]
	if cl == nil || cl.Invocations != 400 || len(cl.Rounds) != 8 {
		t.Fatalf("concurrent spill lost records: %+v", cl)
	}
}

func TestSpillRejectsInvalidRecords(t *testing.T) {
	w, err := NewWriter(&bytes.Buffer{}, 10, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Observation{Site: 5}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if err := w.Append(Observation{Site: 0, Invocations: -1}); err == nil {
		t.Error("negative invocations accepted")
	}
	if err := w.Fail(-1); err == nil {
		t.Error("negative failure site accepted")
	}
	if _, err := ReadSpills(); err == nil {
		t.Error("ReadSpills() with no streams should fail")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the concurrency test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Bytes()
}

// TestSpillStreamTruncation sweeps every possible truncation point of a
// spill stream and pins the reader's contract at each: a stream cut inside
// the header or inside a record must surface an error (never a panic, never
// a silently short read), while a cut exactly on a record boundary reads as
// a clean, shorter stream — the property that keeps a crashed shard's spill
// usable up to its last durable record.
func TestSpillStreamTruncation(t *testing.T) {
	domains := []string{"a.example", "b.example", "c.example"}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 64, domains)
	if err != nil {
		t.Fatal(err)
	}
	// boundaries[i] is the offset at which exactly i records are durable.
	var boundaries []int
	mark := func() {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, buf.Len())
	}
	mark() // header only: a valid, empty stream
	sf := measure.NewBitset(64)
	sf.Set(3)
	sf.Set(40)
	if err := w.Append(Observation{Case: measure.CaseDefault, Round: 0, Site: 0, Features: sf, Invocations: 5, Pages: 1}); err != nil {
		t.Fatal(err)
	}
	mark()
	if err := w.Fail(1); err != nil {
		t.Fatal(err)
	}
	mark()
	if err := w.EndSite(0); err != nil {
		t.Fatal(err)
	}
	mark()
	sf2 := measure.NewBitset(64)
	sf2.Set(0)
	if err := w.Append(Observation{Case: measure.CaseBlocking, Round: 1, Site: 2, Features: sf2, Invocations: 2, Pages: 1}); err != nil {
		t.Fatal(err)
	}
	mark()

	headerLen := boundaries[0]
	records := map[int]int{} // boundary offset → records before it
	for i, off := range boundaries {
		records[off] = i
	}

	drainNext := func(s *SpillStream) (int, error) {
		n := 0
		for {
			_, err := s.Next()
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			n++
		}
	}
	drainScan := func(s *SpillStream) (int, error) {
		n := 0
		err := s.Scan(func(SpillRecord) error { n++; return nil })
		return n, err
	}

	// Each drain also reads through a one-byte reader, so every record
	// straddles a window refill.
	total := buf.Len()
	for off := 0; off <= total; off++ {
		for _, d := range []struct {
			name    string
			drain   func(*SpillStream) (int, error)
			oneByte bool
		}{
			{"Next", drainNext, false}, {"Scan", drainScan, false},
			{"Next/one-byte", drainNext, true}, {"Scan/one-byte", drainScan, true},
		} {
			var src io.Reader = bytes.NewReader(buf.Bytes()[:off])
			if d.oneByte {
				src = iotest.OneByteReader(src)
			}
			s, err := OpenSpills(src)
			if off < headerLen {
				if err == nil {
					t.Errorf("offset %d: truncated header opened cleanly", off)
				}
				continue
			}
			if err != nil {
				t.Fatalf("offset %d: header unexpectedly unreadable: %v", off, err)
			}
			n, derr := d.drain(s)
			if want, boundary := records[off]; boundary {
				if derr != nil {
					t.Errorf("%s, offset %d (boundary): unexpected error after %d records: %v", d.name, off, n, derr)
				} else if n != want {
					t.Errorf("%s, offset %d (boundary): read %d records, want %d", d.name, off, n, want)
				}
			} else if derr == nil {
				t.Errorf("%s, offset %d (mid-record): drained %d records with no error; truncation went undetected", d.name, off, n)
			}
		}
	}
}
