package logstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/measure"
)

// spillMagic identifies a spill file: an append-only stream of per-visit
// observations, as opposed to the complete logs the codecs write.
const spillMagic = "\xF1SPL1"

// SpillKind discriminates the records of a spill stream. The numeric
// values are the on-disk record-type bytes.
type SpillKind byte

const (
	// SpillObservation is one completed visit.
	SpillObservation SpillKind = 1
	// SpillFailure marks a site unmeasurable (a visit of it failed).
	SpillFailure SpillKind = 2
	// SpillSiteEnd marks that every visit of a site is in the stream. It
	// carries no measurement data — it exists so a streaming consumer
	// (stats.FromSpills) can retire the site's accumulator and keep its
	// memory bounded by in-flight sites instead of total sites. Streams
	// without end markers (older files, a crashed shard) stay readable;
	// consumers simply retire everything at EOF.
	SpillSiteEnd SpillKind = 3
)

// Observation is one completed visit: the feature set, invocation total,
// and page count of a single (case, round, site) crawl. It is the unit the
// streaming Writer appends and the unit a pipeline shard would ship to a
// remote merger.
type Observation struct {
	Case        measure.Case
	Round       int
	Site        int
	Features    measure.Bitset
	Invocations int64
	Pages       int
}

// SpillRecord is one decoded event of a spill stream.
type SpillRecord struct {
	Kind SpillKind
	// Obs holds the visit for SpillObservation records.
	Obs Observation
	// Site is the subject site of SpillFailure and SpillSiteEnd records
	// (for observations it duplicates Obs.Site).
	Site int
}

// Writer streams per-visit observations to a spill file so a producer
// (a pipeline shard, a remote worker) never has to hold a full log in
// memory. Records become durable at Flush; ReadSpills reassembles one or
// more spill files into the measure.Log the visits describe, and
// stats.FromSpills folds them straight into a mergeable aggregate.
//
// A Writer is safe for concurrent use: the workers of a pipeline shard
// append to one shared spill.
type Writer struct {
	mu          sync.Mutex
	w           *binWriter
	closer      io.Closer
	file        *os.File // set when the Writer owns a real file
	finalPath   string   // atomic mode: rename file to this on Close
	numFeatures int
	numDomains  int
}

// NewWriter starts a spill stream on w for the given corpus and site list,
// writing the header immediately.
func NewWriter(w io.Writer, numFeatures int, domains []string) (*Writer, error) {
	bw := newBinWriter(w)
	bw.bytes([]byte(spillMagic))
	bw.uvarint(uint64(numFeatures))
	bw.uvarint(uint64(len(domains)))
	for _, d := range domains {
		bw.str(d)
	}
	if err := bw.flush(); err != nil {
		return nil, fmt.Errorf("logstore: writing spill header: %w", err)
	}
	return &Writer{w: bw, numFeatures: numFeatures, numDomains: len(domains)}, nil
}

// Create starts a spill stream in a new file at path.
func Create(path string, numFeatures int, domains []string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, numFeatures, domains)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	w.file = f
	return w, nil
}

// CreateAtomic starts a spill stream that becomes visible at path only
// on a clean Close: records accumulate in path+".partial", and Close
// flushes, fsyncs, renames the file into place, and fsyncs the
// directory. A crash — or a Discard after a failed run — leaves only
// the .partial file, which resume scanning treats as a torn stream, so
// a half-written spill can never be mistaken for a complete one.
func CreateAtomic(path string, numFeatures int, domains []string) (*Writer, error) {
	return CreateAtomicTapped(path, numFeatures, domains, nil)
}

// CreateAtomicTapped is CreateAtomic with every byte the stream sends
// to its file routed through tap(file) first — the seam crash tests use
// to tear writes at reproducible points. A nil tap is the identity.
func CreateAtomicTapped(path string, numFeatures int, domains []string, tap func(io.Writer) io.Writer) (*Writer, error) {
	f, err := os.Create(path + ".partial")
	if err != nil {
		return nil, err
	}
	var dst io.Writer = f
	if tap != nil {
		dst = tap(f)
	}
	w, err := NewWriter(dst, numFeatures, domains)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	w.file = f
	w.finalPath = path
	return w, nil
}

// Append records one observation.
func (w *Writer) Append(obs Observation) error {
	if obs.Site < 0 || obs.Site >= w.numDomains || obs.Round < 0 || obs.Invocations < 0 || obs.Pages < 0 {
		return fmt.Errorf("logstore: invalid observation %+v", obs)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.w.byte(byte(SpillObservation))
	w.w.str(string(obs.Case))
	w.w.uvarint(uint64(obs.Round))
	w.w.uvarint(uint64(obs.Site))
	w.w.uvarint(uint64(obs.Invocations))
	w.w.uvarint(uint64(obs.Pages))
	w.w.bitset(obs.Features, w.numFeatures)
	return w.w.err
}

// Fail records that a visit to the site failed, making the site
// unmeasurable in the reassembled log (the paper's 267 lost domains).
func (w *Writer) Fail(site int) error {
	if site < 0 || site >= w.numDomains {
		return fmt.Errorf("logstore: invalid failure site %d", site)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.w.byte(byte(SpillFailure))
	w.w.uvarint(uint64(site))
	return w.w.err
}

// EndSite records that every visit of the site has been appended, letting
// streaming consumers retire the site immediately instead of at EOF. All
// of the site's Append and Fail calls must precede it.
func (w *Writer) EndSite(site int) error {
	if site < 0 || site >= w.numDomains {
		return fmt.Errorf("logstore: invalid site-end site %d", site)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.w.byte(byte(SpillSiteEnd))
	w.w.uvarint(uint64(site))
	return w.w.err
}

// Flush makes all appended records durable.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.flush()
}

// Close flushes and, when the Writer owns its file, closes it. A
// Writer from CreateAtomic additionally fsyncs and renames the file to
// its final name — but only when every earlier write succeeded, so a
// failed stream is never published as complete.
func (w *Writer) Close() error {
	err := w.Flush()
	if err == nil && w.file != nil && w.finalPath != "" {
		err = w.file.Sync()
	}
	tmp := ""
	if w.file != nil {
		tmp = w.file.Name()
	}
	if w.closer != nil {
		if cerr := w.closer.Close(); err == nil {
			err = cerr
		}
		w.closer = nil
		w.file = nil
	}
	if err == nil && w.finalPath != "" && tmp != "" {
		if err = os.Rename(tmp, w.finalPath); err == nil {
			err = syncDir(filepath.Dir(w.finalPath))
		}
	}
	w.finalPath = ""
	return err
}

// Discard closes the Writer without publishing its stream: flushed
// records stay in the .partial file (resume can still salvage any
// fully committed sites), but the final name is never created. For a
// non-atomic Writer it is equivalent to Close.
func (w *Writer) Discard() error {
	w.finalPath = ""
	w.Flush()
	if w.closer != nil {
		err := w.closer.Close()
		w.closer = nil
		w.file = nil
		return err
	}
	return nil
}

// spillHeader is the decoded fixed prelude of one spill stream.
type spillHeader struct {
	numFeatures int
	domains     []string
}

func readSpillHeader(r *binReader) (*spillHeader, error) {
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
	domains, err := r.domains(numDomains)
	if err != nil {
		return nil, err
	}
	return &spillHeader{numFeatures: numFeatures, domains: domains}, nil
}

// sameStudy reports whether two spill headers describe the identical study:
// same corpus size and the same site list, domain by domain. Counts alone
// are not enough — two different seeds generate different webs of the same
// shape whose visits must never merge.
func (h *spillHeader) sameStudy(other *spillHeader) error {
	if h.numFeatures != other.numFeatures || len(h.domains) != len(other.domains) {
		return fmt.Errorf("describes a different study (%d features × %d domains, want %d × %d)",
			h.numFeatures, len(h.domains), other.numFeatures, len(other.domains))
	}
	for i, d := range h.domains {
		if d != other.domains[i] {
			return fmt.Errorf("describes a different study (domain %d is %q, want %q)", i, d, other.domains[i])
		}
	}
	return nil
}

// SpillStream is a streaming reader over one or more spill streams of the
// same study: records decode one at a time, so a consumer folding them into
// bounded state (a mergeable stats aggregate) never materializes the full
// log. Streams are concatenated in the order given; every header after the
// first must describe the first's study.
//
// Next returns each record with a feature bitset of its own. Scan hands
// every record to a callback with a borrowed bitset instead, so a consumer
// that only reads the features allocates nothing per record.
type SpillStream struct {
	header  *spillHeader
	readers []io.Reader
	files   []*os.File
	idx     int
	cur     *binReader
	// cases interns the case names seen so far, so an observation's
	// name costs no allocation once its case has appeared.
	cases []measure.Case
	// scratch is the bitset Scan decodes every observation into.
	scratch measure.Bitset
}

// OpenSpills starts streaming over the given spill streams.
func OpenSpills(readers ...io.Reader) (*SpillStream, error) {
	if len(readers) == 0 {
		return nil, fmt.Errorf("logstore: no spill streams to read")
	}
	s := &SpillStream{readers: readers}
	br := newBinReader(readers[0])
	h, err := readSpillHeader(br)
	if err != nil {
		return nil, err
	}
	s.header = h
	s.cur = br
	s.idx = 1
	return s, nil
}

// OpenSpillFiles starts streaming over the named spill files. Close
// releases them.
func OpenSpillFiles(paths ...string) (*SpillStream, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("logstore: no spill files to read")
	}
	files := make([]*os.File, 0, len(paths))
	readers := make([]io.Reader, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			for _, open := range files {
				open.Close()
			}
			return nil, err
		}
		files = append(files, f)
		readers = append(readers, f)
	}
	s, err := OpenSpills(readers...)
	if err != nil {
		for _, open := range files {
			open.Close()
		}
		return nil, err
	}
	s.files = files
	return s, nil
}

// NumFeatures returns the streams' corpus size.
func (s *SpillStream) NumFeatures() int { return s.header.numFeatures }

// Domains returns the streams' site list.
func (s *SpillStream) Domains() []string {
	return append([]string(nil), s.header.domains...)
}

// Next decodes the next record, transparently advancing across streams. It
// returns io.EOF after the last stream's last record; any other error means
// corruption or a study mismatch. An observation's Features belongs to the
// caller.
func (s *SpillStream) Next() (SpillRecord, error) {
	return s.next(nil)
}

// Scan decodes every remaining record, calling fn with each in stream
// order. It returns nil at the end of the last stream, the first decode
// error, or the first error fn returns.
//
// An observation's Features is borrowed: it is one bitset the stream
// decodes every observation into, valid only until fn returns. A caller
// that keeps a feature set past the call must clone it.
func (s *SpillStream) Scan(fn func(SpillRecord) error) error {
	if s.scratch == nil {
		s.scratch = measure.NewBitset(s.header.numFeatures)
	}
	for {
		rec, err := s.next(s.scratch)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// next decodes the next record, into scratch when it is non-nil and into
// a fresh bitset otherwise.
func (s *SpillStream) next(scratch measure.Bitset) (SpillRecord, error) {
	for {
		kind, err := s.cur.readByte()
		if err == io.EOF {
			// Clean end of one stream on a record boundary: move to
			// the next stream, validating its header.
			if s.idx >= len(s.readers) {
				return SpillRecord{}, io.EOF
			}
			s.cur.reset(s.readers[s.idx])
			h, err := readSpillHeader(s.cur)
			if err != nil {
				return SpillRecord{}, err
			}
			if err := h.sameStudy(s.header); err != nil {
				return SpillRecord{}, fmt.Errorf("logstore: spill stream %d: %w", s.idx, err)
			}
			s.idx++
			continue
		}
		if err != nil {
			return SpillRecord{}, fmt.Errorf("logstore: reading spill record: %w", err)
		}
		if len(s.header.domains) == 0 {
			return SpillRecord{}, fmt.Errorf("logstore: spill records a visit but declares zero domains")
		}
		return s.decodeRecord(SpillKind(kind), scratch)
	}
}

// caseName resolves a decoded case name to its interned value, allocating
// only for a name the stream has not produced before.
func (s *SpillStream) caseName(b []byte) measure.Case {
	for _, c := range s.cases {
		if string(c) == string(b) {
			return c
		}
	}
	c := measure.Case(b)
	if len(s.cases) < maxCases {
		s.cases = append(s.cases, c)
	}
	return c
}

func (s *SpillStream) decodeRecord(kind SpillKind, scratch measure.Bitset) (SpillRecord, error) {
	r := s.cur
	h := s.header
	switch kind {
	case SpillObservation:
		name, err := r.strBytes(256, "case name")
		if err != nil {
			return SpillRecord{}, err
		}
		cs := s.caseName(name)
		round, err := r.count(maxRounds-1, "round")
		if err != nil {
			return SpillRecord{}, err
		}
		site, err := r.count(len(h.domains)-1, "site")
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
		sf := scratch
		if sf == nil {
			sf = measure.NewBitset(h.numFeatures)
		} else {
			clear(sf)
		}
		if err := r.bitsetInto(sf, h.numFeatures); err != nil {
			return SpillRecord{}, err
		}
		return SpillRecord{
			Kind: SpillObservation,
			Site: site,
			Obs: Observation{
				Case:        cs,
				Round:       round,
				Site:        site,
				Features:    sf,
				Invocations: inv,
				Pages:       int(pages),
			},
		}, nil
	case SpillFailure:
		site, err := r.count(len(h.domains)-1, "failure site")
		if err != nil {
			return SpillRecord{}, err
		}
		return SpillRecord{Kind: SpillFailure, Site: site}, nil
	case SpillSiteEnd:
		site, err := r.count(len(h.domains)-1, "site-end site")
		if err != nil {
			return SpillRecord{}, err
		}
		return SpillRecord{Kind: SpillSiteEnd, Site: site}, nil
	default:
		return SpillRecord{}, fmt.Errorf("logstore: unknown spill record type %d", kind)
	}
}

// Close releases any files the stream owns.
func (s *SpillStream) Close() error {
	var err error
	for _, f := range s.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	s.files = nil
	return err
}

// readIntoLog drains a stream into a full measure.Log. cells caps the
// (case, round, site) slots materialized so a crafted stream cannot grow
// the log unboundedly through EnsureRound.
func readIntoLog(s *SpillStream) (*measure.Log, error) {
	l := measure.NewLog(s.header.numFeatures, s.header.domains)
	failed := make([]bool, len(s.header.domains))
	cells := 0
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch rec.Kind {
		case SpillObservation:
			cs, round := rec.Obs.Case, rec.Obs.Round
			if cl := l.Cases[cs]; cl == nil || round >= len(cl.Rounds) {
				have := 0
				if cl != nil {
					have = len(cl.Rounds)
				}
				cells += (round + 1 - have) * len(s.header.domains)
				if cells > maxCells {
					return nil, fmt.Errorf("logstore: spill merge exceeds %d cells", maxCells)
				}
				if cl == nil && len(l.Cases) >= maxCases {
					return nil, fmt.Errorf("logstore: spill merge exceeds %d cases", maxCases)
				}
			}
			rl := l.EnsureRound(cs, round)
			rl.SiteFeatures[rec.Obs.Site] = rec.Obs.Features
			cl := l.Cases[cs]
			cl.Invocations += rec.Obs.Invocations
			cl.PagesVisited += int64(rec.Obs.Pages)
			l.Measured[rec.Obs.Site] = true
		case SpillFailure:
			failed[rec.Site] = true
		case SpillSiteEnd:
			// A scheduling marker, not measurement data: the log
			// gains nothing by retiring sites early.
		}
	}
	for site, f := range failed {
		if f {
			l.Measured[site] = false
		}
	}
	return l, nil
}

// ReadSpills reassembles one or more spill streams into a single
// measure.Log, exactly as if every observation had been recorded into one
// in-memory log: per-case rounds grow to the highest round observed, and a
// site is measured when it produced at least one observation and no visit
// of it failed. Every stream must describe the same corpus and site list.
func ReadSpills(readers ...io.Reader) (*measure.Log, error) {
	s, err := OpenSpills(readers...)
	if err != nil {
		return nil, err
	}
	return readIntoLog(s)
}

// ReadSpillFiles reassembles the named spill files into one log.
func ReadSpillFiles(paths ...string) (*measure.Log, error) {
	s, err := OpenSpillFiles(paths...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return readIntoLog(s)
}

// spillCodec adapts a single spill stream to the Codec Decode side so Read
// and Detect handle spill files transparently. Spill files are produced by
// the streaming Writer, never by Encode.
type spillCodec struct{}

func (spillCodec) Name() string { return "spill" }

func (spillCodec) Encode(io.Writer, *measure.Log) error {
	return fmt.Errorf("logstore: spill files are written by the streaming Writer, not a codec")
}

func (spillCodec) Decode(r io.Reader) (*measure.Log, error) {
	return ReadSpills(r)
}
