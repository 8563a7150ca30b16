package logstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/measure"
)

// This file keeps the byte-at-a-time decoders and the two-walk bitset
// encoder the package used before its window reader and one-pass encoder:
// the reference the fuzzers and the run-encoding tests hold the program's
// codecs to. Each reads exactly what the program reads and writes exactly
// what it writes.

// referenceRuns calls fn(start, length) for every maximal run of
// consecutive set bits among b's first n bits.
func referenceRuns(b measure.Bitset, n int, fn func(start, run int)) {
	for i := 0; i < n; {
		w := i / 64
		if w >= len(b) {
			return
		}
		word := b[w] >> (uint(i) % 64)
		if word == 0 {
			i = (w + 1) * 64
			continue
		}
		i += bits.TrailingZeros64(word)
		if i >= n {
			return
		}
		start := i
		for i < n {
			w = i / 64
			if w >= len(b) {
				break
			}
			inv := ^b[w] >> (uint(i) % 64)
			if inv == 0 {
				i = (w + 1) * 64
				continue
			}
			i += bits.TrailingZeros64(inv)
			break
		}
		if i > n {
			i = n
		}
		fn(start, i-start)
	}
}

// referenceBitset is the run encoding of b's first n bits written the old
// way: one walk to count the runs, a second to write each varint on its
// own.
func referenceBitset(b measure.Bitset, n int) []byte {
	var out []byte
	put := func(v uint64) { out = binary.AppendUvarint(out, v) }
	runs := 0
	referenceRuns(b, n, func(int, int) { runs++ })
	put(uint64(runs))
	prev := 0
	referenceRuns(b, n, func(start, run int) {
		gap := start - prev
		if run == 1 {
			put(uint64(gap) << 1)
		} else {
			put(uint64(gap)<<1 | 1)
			put(uint64(run - 2))
		}
		prev = start + run
	})
	return out
}

// refReader decodes byte by byte through bufio and binary.ReadUvarint.
type refReader struct {
	br *bufio.Reader
}

func newRefReader(r io.Reader) *refReader {
	return &refReader{br: bufio.NewReaderSize(r, 1<<16)}
}

func (r *refReader) uvarint(max uint64, what string) (uint64, error) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, fmt.Errorf("logstore: reading %s: %w", what, err)
	}
	if v > max {
		return 0, fmt.Errorf("logstore: %s %d exceeds limit %d", what, v, max)
	}
	return v, nil
}

func (r *refReader) count(max int, what string) (int, error) {
	v, err := r.uvarint(uint64(max), what)
	return int(v), err
}

func (r *refReader) int64Val(what string) (int64, error) {
	v, err := r.uvarint(math.MaxInt64, what)
	return int64(v), err
}

func (r *refReader) str(max int, what string) (string, error) {
	n, err := r.count(max, what+" length")
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return "", fmt.Errorf("logstore: reading %s: %w", what, err)
	}
	return string(buf), nil
}

func (r *refReader) bitset(n int) (measure.Bitset, error) {
	runs, err := r.count(n, "bitset run count")
	if err != nil {
		return nil, err
	}
	b := measure.NewBitset(n)
	pos := 0
	for p := 0; p < runs; p++ {
		head, err := r.uvarint(uint64(n)<<1|1, "bitset gap")
		if err != nil {
			return nil, err
		}
		gap, run := int(head>>1), 1
		if head&1 != 0 {
			extra, err := r.count(n, "bitset run length")
			if err != nil {
				return nil, err
			}
			run = extra + 2
		}
		pos += gap
		if pos+run > n {
			return nil, fmt.Errorf("logstore: bitset run [%d,%d) outside %d bits", pos, pos+run, n)
		}
		for i := 0; i < run; i++ {
			b.Set(pos + i)
		}
		pos += run
	}
	return b, nil
}

func (r *refReader) expectMagic(magic, format string) error {
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return fmt.Errorf("logstore: reading %s magic: %w", format, err)
	}
	if string(buf) != magic {
		return fmt.Errorf("logstore: not a %s log (magic bytes %q)", format, buf)
	}
	return nil
}

// referenceDecodeBinary is Binary.Decode over the reference reader.
func referenceDecodeBinary(r io.Reader) (*measure.Log, error) {
	br := newRefReader(r)
	if err := br.expectMagic(binaryMagic, "binary"); err != nil {
		return nil, err
	}
	numFeatures, err := br.count(maxFeatures, "feature count")
	if err != nil {
		return nil, err
	}
	if numFeatures == 0 {
		return nil, fmt.Errorf("logstore: binary log has zero features")
	}
	numDomains, err := br.count(maxDomains, "domain count")
	if err != nil {
		return nil, err
	}
	domains := make([]string, numDomains)
	for i := range domains {
		if domains[i], err = br.str(4096, "domain name"); err != nil {
			return nil, err
		}
	}
	l := measure.NewLog(numFeatures, domains)
	meas, err := br.bitset(numDomains)
	if err != nil {
		return nil, err
	}
	for i := range l.Measured {
		l.Measured[i] = meas.Get(i)
	}
	numCases, err := br.count(maxCases, "case count")
	if err != nil {
		return nil, err
	}
	cells := 0
	for c := 0; c < numCases; c++ {
		name, err := br.str(256, "case name")
		if err != nil {
			return nil, err
		}
		rounds, err := br.count(maxRounds, "round count")
		if err != nil {
			return nil, err
		}
		cl := &measure.CaseLog{}
		if cl.Invocations, err = br.int64Val("invocation count"); err != nil {
			return nil, err
		}
		if cl.PagesVisited, err = br.int64Val("page count"); err != nil {
			return nil, err
		}
		if _, dup := l.Cases[measure.Case(name)]; dup {
			return nil, fmt.Errorf("logstore: binary log repeats case %q", name)
		}
		l.Cases[measure.Case(name)] = cl
		cells += rounds * numDomains
		if cells > maxCells {
			return nil, fmt.Errorf("logstore: binary log exceeds %d cells", maxCells)
		}
		for r := 0; r < rounds; r++ {
			rl := &measure.RoundLog{SiteFeatures: make([]measure.Bitset, numDomains)}
			cl.Rounds = append(cl.Rounds, rl)
			present, err := br.count(numDomains, "present site count")
			if err != nil {
				return nil, err
			}
			site := 0
			for p := 0; p < present; p++ {
				delta, err := br.count(numDomains, "site delta")
				if err != nil {
					return nil, err
				}
				site += delta
				if site >= numDomains || rl.SiteFeatures[site] != nil {
					return nil, fmt.Errorf("logstore: binary log site index %d invalid", site)
				}
				if rl.SiteFeatures[site], err = br.bitset(numFeatures); err != nil {
					return nil, err
				}
			}
		}
	}
	return l, nil
}

// referenceSpill is what the reference spill reader makes of a stream:
// its header, every record it decodes, and whether it stopped at a
// decode error rather than at the end of the stream.
type referenceSpill struct {
	numFeatures int
	domains     []string
	records     []SpillRecord
	failed      bool
}

// readReferenceSpill decodes one spill stream with the reference reader.
// It returns an error only when the header does not decode.
func readReferenceSpill(data []byte) (*referenceSpill, error) {
	r := newRefReader(bytes.NewReader(data))
	if err := r.expectMagic(spillMagic, "spill"); err != nil {
		return nil, err
	}
	numFeatures, err := r.count(maxFeatures, "feature count")
	if err != nil {
		return nil, err
	}
	if numFeatures == 0 {
		return nil, fmt.Errorf("logstore: spill has zero features")
	}
	numDomains, err := r.count(maxDomains, "domain count")
	if err != nil {
		return nil, err
	}
	out := &referenceSpill{numFeatures: numFeatures, domains: make([]string, numDomains)}
	for i := range out.domains {
		if out.domains[i], err = r.str(4096, "domain name"); err != nil {
			return nil, err
		}
	}
	for {
		kind, err := r.br.ReadByte()
		if err == io.EOF {
			return out, nil
		}
		if err != nil || numDomains == 0 {
			out.failed = true
			return out, nil
		}
		rec, err := referenceSpillRecord(r, SpillKind(kind), numFeatures, numDomains)
		if err != nil {
			out.failed = true
			return out, nil
		}
		out.records = append(out.records, rec)
	}
}

func referenceSpillRecord(r *refReader, kind SpillKind, numFeatures, numDomains int) (SpillRecord, error) {
	switch kind {
	case SpillObservation:
		cs, err := r.str(256, "case name")
		if err != nil {
			return SpillRecord{}, err
		}
		round, err := r.count(maxRounds-1, "round")
		if err != nil {
			return SpillRecord{}, err
		}
		site, err := r.count(numDomains-1, "site")
		if err != nil {
			return SpillRecord{}, err
		}
		inv, err := r.int64Val("invocations")
		if err != nil {
			return SpillRecord{}, err
		}
		pages, err := r.int64Val("pages")
		if err != nil {
			return SpillRecord{}, err
		}
		sf, err := r.bitset(numFeatures)
		if err != nil {
			return SpillRecord{}, err
		}
		return SpillRecord{Kind: SpillObservation, Site: site, Obs: Observation{
			Case: measure.Case(cs), Round: round, Site: site,
			Features: sf, Invocations: inv, Pages: int(pages),
		}}, nil
	case SpillFailure, SpillSiteEnd:
		site, err := r.count(numDomains-1, "site")
		if err != nil {
			return SpillRecord{}, err
		}
		return SpillRecord{Kind: kind, Site: site}, nil
	default:
		return SpillRecord{}, fmt.Errorf("logstore: unknown spill record type %d", kind)
	}
}

// referenceDecodeCSV is CSV.Decode splitting every line into strings.
func referenceDecodeCSV(r io.Reader) (*measure.Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	l := &measure.Log{Cases: make(map[measure.Case]*measure.CaseLog)}
	line, cells, numDomains := 0, 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		switch {
		case strings.HasPrefix(text, csvMagic):
			if l.NumFeatures != 0 {
				return nil, fmt.Errorf("logstore: csv line %d: duplicate feature header", line)
			}
			n, err := strconv.Atoi(parts[1])
			if err != nil || n <= 0 || n > maxFeatures {
				return nil, fmt.Errorf("logstore: csv line %d: bad feature count", line)
			}
			l.NumFeatures = n
		case strings.HasPrefix(text, "#domains,"):
			if l.NumFeatures == 0 || l.Domains != nil {
				return nil, fmt.Errorf("logstore: csv line %d: misplaced domain header", line)
			}
			n, err := strconv.Atoi(parts[1])
			if err != nil || n < 0 || n > maxDomains {
				return nil, fmt.Errorf("logstore: csv line %d: bad domain count", line)
			}
			numDomains = n
			l.Domains, l.Measured = []string{}, []bool{}
		case strings.HasPrefix(text, "#domain,"):
			if len(parts) != 4 {
				return nil, fmt.Errorf("logstore: csv line %d: bad domain record", line)
			}
			idx, err := strconv.Atoi(parts[1])
			if err != nil || idx != len(l.Domains) || idx >= numDomains {
				return nil, fmt.Errorf("logstore: csv line %d: bad domain index", line)
			}
			l.Domains = append(l.Domains, parts[2])
			l.Measured = append(l.Measured, parts[3] == "true")
		case strings.HasPrefix(text, "#case,"):
			if len(parts) != 5 {
				return nil, fmt.Errorf("logstore: csv line %d: bad case record", line)
			}
			if l.Domains == nil {
				return nil, fmt.Errorf("logstore: csv line %d: case before domain header", line)
			}
			if len(l.Domains) != numDomains {
				return nil, fmt.Errorf("logstore: csv line %d: %d domain records for a header of %d", line, len(l.Domains), numDomains)
			}
			if _, dup := l.Cases[measure.Case(parts[1])]; dup {
				return nil, fmt.Errorf("logstore: csv line %d: duplicate case %q", line, parts[1])
			}
			cl := &measure.CaseLog{}
			var err error
			if cl.Invocations, err = strconv.ParseInt(parts[3], 10, 64); err != nil {
				return nil, fmt.Errorf("logstore: csv line %d: bad invocation count", line)
			}
			if cl.PagesVisited, err = strconv.ParseInt(parts[4], 10, 64); err != nil {
				return nil, fmt.Errorf("logstore: csv line %d: bad page count", line)
			}
			rounds, err := strconv.Atoi(parts[2])
			if err != nil || rounds < 0 || rounds > maxRounds {
				return nil, fmt.Errorf("logstore: csv line %d: bad round count", line)
			}
			if len(l.Cases) >= maxCases {
				return nil, fmt.Errorf("logstore: csv line %d: too many cases", line)
			}
			cells += rounds * len(l.Domains)
			if cells > maxCells {
				return nil, fmt.Errorf("logstore: csv line %d: log exceeds %d cells", line, maxCells)
			}
			for i := 0; i < rounds; i++ {
				cl.Rounds = append(cl.Rounds, &measure.RoundLog{SiteFeatures: make([]measure.Bitset, len(l.Domains))})
			}
			l.Cases[measure.Case(parts[1])] = cl
		default:
			if len(parts) != 4 {
				return nil, fmt.Errorf("logstore: csv line %d: bad observation %q", line, text)
			}
			cl := l.Cases[measure.Case(parts[0])]
			if cl == nil {
				return nil, fmt.Errorf("logstore: csv line %d: unknown case %q", line, parts[0])
			}
			round, err := strconv.Atoi(parts[1])
			if err != nil || round < 0 || round >= len(cl.Rounds) {
				return nil, fmt.Errorf("logstore: csv line %d: bad round", line)
			}
			site, err := strconv.Atoi(parts[2])
			if err != nil || site < 0 || site >= len(l.Domains) {
				return nil, fmt.Errorf("logstore: csv line %d: bad site", line)
			}
			sf := measure.NewBitset(l.NumFeatures)
			for _, idStr := range strings.Fields(parts[3]) {
				id, err := strconv.Atoi(idStr)
				if err != nil || id < 0 || id >= l.NumFeatures {
					return nil, fmt.Errorf("logstore: csv line %d: bad feature id %q", line, idStr)
				}
				sf.Set(id)
			}
			cl.Rounds[round].SiteFeatures[site] = sf
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if l.NumFeatures == 0 || l.Domains == nil {
		return nil, fmt.Errorf("logstore: csv log missing header records")
	}
	if len(l.Domains) != numDomains {
		return nil, fmt.Errorf("logstore: csv log has %d domain records for a header of %d", len(l.Domains), numDomains)
	}
	return l, nil
}
