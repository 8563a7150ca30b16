package logstore

import (
	"fmt"
	"io"

	"repro/internal/measure"
)

// binaryMagic identifies the binary log format: a non-UTF8 lead byte (so
// the file can never be mistaken for CSV), a format tag, and a version.
const binaryMagic = "\xF1FLG1"

// Binary is the compact log format: a magic header followed by
// varint-encoded metadata and run-length-encoded feature bitsets. On the
// benchmark log it is several times smaller than CSV and faster to encode
// and decode, because set bits cost a couple of varint bytes per run
// instead of a decimal feature ID per bit.
//
// Layout after the magic, all integers unsigned varints:
//
//	numFeatures
//	numDomains, then per domain a length-prefixed name
//	measured flags as one run-encoded bitset over the domains
//	numCases, then per case (sorted by name):
//	    name, rounds, invocations, pagesVisited
//	    per round: count of present sites, then per present site
//	    (ascending) its index delta and its run-encoded feature bitset
type Binary struct{}

// Name implements Codec.
func (Binary) Name() string { return "binary" }

// Encode implements Codec.
func (Binary) Encode(w io.Writer, l *measure.Log) error {
	bw := newBinWriter(w)
	bw.bytes([]byte(binaryMagic))
	bw.uvarint(uint64(l.NumFeatures))
	bw.uvarint(uint64(len(l.Domains)))
	for _, d := range l.Domains {
		bw.str(d)
	}
	meas := measure.NewBitset(len(l.Domains))
	for i, m := range l.Measured {
		if m {
			meas.Set(i)
		}
	}
	bw.bitset(meas, len(l.Domains))

	cases := sortedCases(l)
	bw.uvarint(uint64(len(cases)))
	for _, cs := range cases {
		cl := l.Cases[measure.Case(cs)]
		bw.str(cs)
		bw.uvarint(uint64(len(cl.Rounds)))
		bw.uvarint(uint64(cl.Invocations))
		bw.uvarint(uint64(cl.PagesVisited))
		for _, rl := range cl.Rounds {
			present := 0
			for _, sf := range rl.SiteFeatures {
				if sf != nil {
					present++
				}
			}
			bw.uvarint(uint64(present))
			prev := 0
			for site, sf := range rl.SiteFeatures {
				if sf == nil {
					continue
				}
				bw.uvarint(uint64(site - prev))
				prev = site
				bw.bitset(sf, l.NumFeatures)
			}
		}
	}
	return bw.flush()
}

// Decode implements Codec.
func (Binary) Decode(r io.Reader) (*measure.Log, error) {
	br := newBinReader(r)
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
	domains, err := br.domains(numDomains)
	if err != nil {
		return nil, err
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
