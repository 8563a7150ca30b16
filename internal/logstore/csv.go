package logstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"repro/internal/measure"
)

// csvMagic is the CSV format's self-identifying first line prefix: every
// log ever written by this repository's CSV writer starts with its feature
// count, so pre-logstore files auto-detect without modification.
const csvMagic = "#features,"

// CSV is the repository's original log format, kept byte-for-byte
// compatible so logs written before the logstore API existed still load.
//
// The format aggregates per (case, round, site, feature):
//
//	case,round,site,featureID...
//
// preceded by a header carrying corpus and site metadata:
//
//	#features,N
//	#domains,N
//	#domain,index,name,measured
//	#case,name,rounds,invocations,pagesVisited
type CSV struct{}

// Name implements Codec.
func (CSV) Name() string { return "csv" }

// Encode implements Codec.
func (CSV) Encode(w io.Writer, l *measure.Log) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s%d\n", csvMagic, l.NumFeatures)
	fmt.Fprintf(bw, "#domains,%d\n", len(l.Domains))
	for i, d := range l.Domains {
		fmt.Fprintf(bw, "#domain,%d,%s,%v\n", i, d, l.Measured[i])
	}
	var row []byte
	for _, cs := range sortedCases(l) {
		cl := l.Cases[measure.Case(cs)]
		fmt.Fprintf(bw, "#case,%s,%d,%d,%d\n", cs, len(cl.Rounds), cl.Invocations, cl.PagesVisited)
		for round, rl := range cl.Rounds {
			for site, sf := range rl.SiteFeatures {
				// Empty-but-present observations matter: a site that
				// was visited and used no features (a static site)
				// is different from an unvisited site.
				if sf == nil {
					continue
				}
				row = append(row[:0], cs...)
				row = append(row, ',')
				row = strconv.AppendInt(row, int64(round), 10)
				row = append(row, ',')
				row = strconv.AppendInt(row, int64(site), 10)
				row = append(row, ',')
				row = appendFeatureIDs(row, sf, l.NumFeatures)
				row = append(row, '\n')
				bw.Write(row)
			}
		}
	}
	return bw.Flush()
}

// featureIDText holds the decimal text of every feature ID below its
// length, comfortably above the paper's 1,392 features, so the encoder
// copies each ID instead of formatting it.
var featureIDText = sync.OnceValue(func() []string {
	out := make([]string, 1<<12)
	for id := range out {
		out[id] = strconv.Itoa(id)
	}
	return out
})

// appendFeatureIDs appends the decimal IDs of b's set bits below n,
// ascending and separated by single spaces, walking the words inline.
func appendFeatureIDs(dst []byte, b measure.Bitset, n int) []byte {
	text := featureIDText()
	words := min(len(b), (n+63)/64)
	sep := false
	for wi := 0; wi < words; wi++ {
		for word := b[wi]; word != 0; word &= word - 1 {
			id := wi<<6 | bits.TrailingZeros64(word)
			if id >= n {
				return dst
			}
			if sep {
				dst = append(dst, ' ')
			}
			sep = true
			if id < len(text) {
				dst = append(dst, text[id]...)
			} else {
				dst = strconv.AppendInt(dst, int64(id), 10)
			}
		}
	}
	return dst
}

// Decode implements Codec. Header records go through strings; observation
// rows, nearly every line of a log, are parsed in place from the scanner's
// buffer.
func (CSV) Decode(r io.Reader) (*measure.Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	l := &measure.Log{Cases: make(map[measure.Case]*measure.CaseLog)}
	// numDomains is the header's domain count. The lists grow as #domain
	// records arrive, so a claimed count allocates nothing by itself.
	line, cells, numDomains := 0, 0, 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if raw[0] != '#' {
			if err := decodeCSVRow(l, raw, line); err != nil {
				return nil, err
			}
			continue
		}
		text := string(raw)
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
			// Header order is part of the format: features, domains,
			// then data. Enforcing it keeps every bitset in the log
			// sized by the one true feature count.
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
			// Not a header record: an observation of a case whose
			// name starts with '#'.
			if err := decodeCSVRow(l, raw, line); err != nil {
				return nil, err
			}
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

// decodeCSVRow parses one observation row, case,round,site,ids, in place:
// the fields are found with bytes.IndexByte and the numbers read digit by
// digit. Anything but plain digits and spaces takes the strconv path, so
// a row means exactly what strconv.Atoi and strings.Fields make of it.
func decodeCSVRow(l *measure.Log, text []byte, line int) error {
	var fields [4][]byte
	rest := text
	for i := 0; i < 3; i++ {
		c := bytes.IndexByte(rest, ',')
		if c < 0 {
			return fmt.Errorf("logstore: csv line %d: bad observation %q", line, text)
		}
		fields[i], rest = rest[:c], rest[c+1:]
	}
	if bytes.IndexByte(rest, ',') >= 0 {
		return fmt.Errorf("logstore: csv line %d: bad observation %q", line, text)
	}
	fields[3] = rest

	cl := l.Cases[measure.Case(fields[0])]
	if cl == nil {
		return fmt.Errorf("logstore: csv line %d: unknown case %q", line, fields[0])
	}
	round, ok := atoi(fields[1])
	if !ok || round < 0 || round >= len(cl.Rounds) {
		return fmt.Errorf("logstore: csv line %d: bad round", line)
	}
	site, ok := atoi(fields[2])
	if !ok || site < 0 || site >= len(l.Domains) {
		return fmt.Errorf("logstore: csv line %d: bad site", line)
	}
	sf := measure.NewBitset(l.NumFeatures)
	if err := parseFeatureIDs(sf, fields[3], l.NumFeatures); err != nil {
		return fmt.Errorf("logstore: csv line %d: %w", line, err)
	}
	cl.Rounds[round].SiteFeatures[site] = sf
	return nil
}

// atoi is strconv.Atoi over bytes, reading plain digit strings short
// enough not to overflow in place.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return atoiSlow(b)
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return atoiSlow(b)
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func atoiSlow(b []byte) (int, bool) {
	n, err := strconv.Atoi(string(b))
	return n, err == nil
}

// parseFeatureIDs sets in sf the IDs of a space-separated list, each of
// which must lie in [0, n).
func parseFeatureIDs(sf measure.Bitset, ids []byte, n int) error {
	id, in := 0, false
	for _, c := range ids {
		switch {
		case c >= '0' && c <= '9':
			// A digit can only make a too-large ID larger.
			if id = id*10 + int(c-'0'); id >= n {
				return fmt.Errorf("bad feature id %d", id)
			}
			in = true
		case c == ' ':
			if in {
				sf.Set(id)
			}
			id, in = 0, false
		default:
			clear(sf)
			return parseFeatureIDsSlow(sf, ids, n)
		}
	}
	if in {
		sf.Set(id)
	}
	return nil
}

// parseFeatureIDsSlow is parseFeatureIDs for lists holding anything but
// digits and ASCII spaces: signs, tabs, other Unicode spaces.
func parseFeatureIDsSlow(sf measure.Bitset, ids []byte, n int) error {
	for _, idStr := range strings.Fields(string(ids)) {
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 || id >= n {
			return fmt.Errorf("bad feature id %q", idStr)
		}
		sf.Set(id)
	}
	return nil
}
