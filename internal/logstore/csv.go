package logstore

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

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
				sep := false
				sf.ForEach(l.NumFeatures, func(id int) {
					if sep {
						row = append(row, ' ')
					}
					row = strconv.AppendInt(row, int64(id), 10)
					sep = true
				})
				row = append(row, '\n')
				bw.Write(row)
			}
		}
	}
	return bw.Flush()
}

// Decode implements Codec.
func (CSV) Decode(r io.Reader) (*measure.Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	l := &measure.Log{Cases: make(map[measure.Case]*measure.CaseLog)}
	line, cells := 0, 0
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
			l.Domains = make([]string, n)
			l.Measured = make([]bool, n)
		case strings.HasPrefix(text, "#domain,"):
			if len(parts) != 4 {
				return nil, fmt.Errorf("logstore: csv line %d: bad domain record", line)
			}
			idx, err := strconv.Atoi(parts[1])
			if err != nil || idx < 0 || idx >= len(l.Domains) {
				return nil, fmt.Errorf("logstore: csv line %d: bad domain index", line)
			}
			l.Domains[idx] = parts[2]
			l.Measured[idx] = parts[3] == "true"
		case strings.HasPrefix(text, "#case,"):
			if len(parts) != 5 {
				return nil, fmt.Errorf("logstore: csv line %d: bad case record", line)
			}
			if l.Domains == nil {
				return nil, fmt.Errorf("logstore: csv line %d: case before domain header", line)
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
	return l, nil
}
