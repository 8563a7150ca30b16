package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/logstore"
	"repro/internal/measure"
)

// update rewrites the golden files instead of checking against them:
//
//	go test -run TestGolden -update .
//
// A digest should only move on purpose; record why in CHANGES.md.
var update = flag.Bool("update", false, "rewrite testdata/golden instead of checking against it")

// goldenPoints are the fixed survey configurations whose outputs are
// anchored. Each is small enough to crawl in seconds and large enough that
// every report artifact has rows.
var goldenPoints = []struct {
	name   string
	sites  int
	seed   int64
	rounds int
	cases  []measure.Case
}{
	{"sites48-seed7-rounds3-all", 48, 7, 3, measure.AllCases()},
	{"sites40-seed11-rounds2-default-blocking", 40, 11, 2, []measure.Case{measure.CaseDefault, measure.CaseBlocking}},
}

// TestGolden anchors the survey's outputs to committed SHA-256 digests: the
// CSV and binary encodings of the log read back from the spill files the
// run committed (what crawl -out and pipeline -out write), the report
// rendered from the fold of the CSV-decoded log (what report -log prints),
// the report rendered from the run's spill files (what report -spills
// prints, byte-identical to the former), and those spill files re-written
// as one canonical stream. Every engine, codec and analysis path is checked
// against this fixed record rather than against another path of the same
// code.
func TestGolden(t *testing.T) {
	for _, p := range goldenPoints {
		t.Run(p.name, func(t *testing.T) {
			study, err := core.NewStudy(core.Config{
				Sites:    p.sites,
				Seed:     p.seed,
				Rounds:   p.rounds,
				Cases:    p.cases,
				Shards:   2,
				SpillDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer study.Close()
			res, err := study.RunSurvey()
			if err != nil {
				t.Fatal(err)
			}

			l, err := logstore.ReadSpillFiles(res.Spills...)
			if err != nil {
				t.Fatal(err)
			}
			var csvLog, binLog bytes.Buffer
			if err := (logstore.CSV{}).Encode(&csvLog, l); err != nil {
				t.Fatal(err)
			}
			if err := (logstore.Binary{}).Encode(&binLog, l); err != nil {
				t.Fatal(err)
			}

			decoded, err := logstore.Read(bytes.NewReader(csvLog.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var full bytes.Buffer
			if err := study.WriteReport(&full, study.AggregateResults(analysis.New(decoded, study.Registry).Agg)); err != nil {
				t.Fatal(err)
			}

			paths, err := core.SpillGlob(filepath.Join(study.Cfg.SpillDir, "*.spill"))
			if err != nil {
				t.Fatal(err)
			}
			fromSpills, err := study.ResultsFromSpills(paths...)
			if err != nil {
				t.Fatal(err)
			}
			var agg bytes.Buffer
			if err := study.WriteReport(&agg, fromSpills); err != nil {
				t.Fatal(err)
			}

			spill, err := canonicalSpill(paths)
			if err != nil {
				t.Fatal(err)
			}

			got := []goldenEntry{
				textEntry("csv-log", csvLog.Bytes(), "#case,"),
				binaryEntry("binary-log", binLog.Bytes()),
				textEntry("full-report", full.Bytes(), "Headline results"),
				textEntry("aggregate-report", agg.Bytes(), "Headline results"),
				binaryEntry("spill-stream", spill),
			}
			checkGolden(t, filepath.Join("testdata", "golden", p.name+".txt"), p.name, got)
		})
	}
}

// TestOracleMatchesGolden checks the survey engine's oracle against the
// committed csv-log digests. The oracle is the paper's method (§4.3) as one
// single-threaded loop: site, then case, then round, each visit a
// crawler.Visitor.CrawlOnce at its VisitSeed recorded into a measure.Log. A
// failed visit ends the site's case and clears its Measured flag. TestGolden
// holds the sharded pipeline to the same digests.
func TestOracleMatchesGolden(t *testing.T) {
	for _, p := range goldenPoints {
		t.Run(p.name, func(t *testing.T) {
			study, err := core.NewStudy(core.Config{Sites: p.sites, Seed: p.seed, Rounds: p.rounds, Cases: p.cases})
			if err != nil {
				t.Fatal(err)
			}
			defer study.Close()
			cfg := crawler.DefaultConfig(p.seed)
			cfg.Rounds, cfg.Cases = p.rounds, p.cases
			cr := crawler.New(study.Web, study.Bindings, cfg)
			log := measure.NewLog(len(study.Registry.Features), study.Domains())
			for _, site := range study.Web.Sites {
				failed := false
				for _, cs := range cfg.Cases {
					v, err := cr.NewVisitor(cs)
					if err != nil {
						t.Fatal(err)
					}
					for round := 0; round < cfg.Rounds; round++ {
						counts, pages, err := v.CrawlOnce(site, crawler.VisitSeed(cfg.Seed, site.Index, cs, round))
						if err != nil {
							failed = true
							break
						}
						log.Record(cs, round, site.Index, counts, pages)
					}
				}
				if failed {
					log.Measured[site.Index] = false
				}
			}

			var csvLog bytes.Buffer
			if err := (logstore.CSV{}).Encode(&csvLog, log); err != nil {
				t.Fatal(err)
			}
			want := goldenDigests(t, filepath.Join("testdata", "golden", p.name+".txt"))["csv-log"]
			if got := digestLine("csv-log", csvLog.Bytes()); got != want {
				t.Errorf("oracle csv-log differs from the golden digest:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// canonicalSpill reads a run's spill files and re-appends their records
// through one logstore.Writer in a fixed order: sites ascending, and within
// a site its observations by case then round, then its failures, then its
// end markers. A sharded crawl's workers interleave sites in no fixed
// order, so the files themselves have no stable digest; this stream does,
// and it still runs every byte through the spill encoder and decoder.
func canonicalSpill(paths []string) ([]byte, error) {
	s, err := logstore.OpenSpillFiles(paths...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	type siteRecords struct {
		obs         []logstore.Observation
		fails, ends int
	}
	sites := make([]siteRecords, len(s.Domains()))
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		sr := &sites[rec.Site]
		switch rec.Kind {
		case logstore.SpillObservation:
			sr.obs = append(sr.obs, rec.Obs)
		case logstore.SpillFailure:
			sr.fails++
		case logstore.SpillSiteEnd:
			sr.ends++
		}
	}
	var buf bytes.Buffer
	w, err := logstore.NewWriter(&buf, s.NumFeatures(), s.Domains())
	if err != nil {
		return nil, err
	}
	for site, sr := range sites {
		sort.Slice(sr.obs, func(i, j int) bool {
			a, b := sr.obs[i], sr.obs[j]
			if a.Case != b.Case {
				return a.Case < b.Case
			}
			return a.Round < b.Round
		})
		for _, o := range sr.obs {
			if err := w.Append(o); err != nil {
				return nil, err
			}
		}
		for i := 0; i < sr.fails; i++ {
			if err := w.Fail(site); err != nil {
				return nil, err
			}
		}
		for i := 0; i < sr.ends; i++ {
			if err := w.EndSite(site); err != nil {
				return nil, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// goldenEntry is one anchored artifact: its digest line plus a short
// excerpt so a reviewer can see what the digest covers.
type goldenEntry struct {
	name, digest, excerpt string
}

func digestLine(name string, b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s sha256=%s bytes=%d", name, hex.EncodeToString(sum[:]), len(b))
}

// textEntry excerpts a text artifact: six lines from the first one that
// starts with from.
func textEntry(name string, b []byte, from string) goldenEntry {
	lines := strings.Split(string(b), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, from) {
			lines = lines[i:]
			break
		}
	}
	if len(lines) > 6 {
		lines = lines[:6]
	}
	var ex strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&ex, "  | %s\n", l)
	}
	return goldenEntry{name: name, digest: digestLine(name, b), excerpt: ex.String()}
}

// binaryEntry excerpts the first bytes of a binary artifact as hex.
func binaryEntry(name string, b []byte) goldenEntry {
	head := b
	if len(head) > 32 {
		head = head[:32]
	}
	return goldenEntry{name: name, digest: digestLine(name, b), excerpt: fmt.Sprintf("  | %s\n", hex.EncodeToString(head))}
}

// checkGolden compares the digests against the golden file (or rewrites
// it under -update). Only the digest lines are compared; the excerpts are
// for readers.
func checkGolden(t *testing.T, path, point string, got []goldenEntry) {
	t.Helper()
	var file strings.Builder
	fmt.Fprintf(&file, "# Golden digests for %s. Regenerate with: go test -run TestGolden -update .\n", point)
	for _, e := range got {
		file.WriteString(e.digest + "\n" + e.excerpt)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := goldenDigests(t, path)
	for _, e := range got {
		if want[e.name] != e.digest {
			t.Errorf("%s moved:\n got %s\nwant %s", e.name, e.digest, want[e.name])
		}
	}
}

// goldenDigests reads a golden file's digest lines, keyed by artifact name.
func goldenDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	digests := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		if name, _, ok := strings.Cut(line, " sha256="); ok && !strings.HasPrefix(line, " ") {
			digests[name] = line
		}
	}
	return digests
}
