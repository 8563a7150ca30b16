package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/alexa"
	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/cve"
	"repro/internal/firefoxhist"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/standards"
	"repro/internal/stats"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
	"repro/internal/webserver"
)

// Config parameterizes a study.
type Config struct {
	// Sites is the ranking size (the paper's 10,000). Required.
	Sites int
	// Seed drives all generation and crawling randomness.
	Seed int64
	// Rounds is the number of visits per (site, case); 0 means the
	// paper's 5.
	Rounds int
	// Cases lists the browser configurations; nil means all four
	// (default, blocking, ad-only, tracker-only).
	Cases []measure.Case
	// Shards is the number of site partitions the internal/pipeline
	// engine crawls independently; 0 means one. Every geometry produces
	// the same log for a seed.
	Shards int
	// ShardWorkers is the number of browser workers per shard; 0 means
	// the engine default of 4.
	ShardWorkers int
	// BatchSize is the pipeline's visit-merge batch size; 0 picks the
	// engine default.
	BatchSize int
	// UseHTTP routes all fetches through a real net/http server instead
	// of in-process resolution.
	UseHTTP bool
	// HumanSample is the external-validation sample size; 0 means the
	// paper's 92 completed domains.
	HumanSample int
	// LogFormat names the logstore codec SaveLog writes ("csv" or
	// "binary"); "" means csv, the original format. Reading always
	// auto-detects, so the format only matters when writing.
	LogFormat string
	// CacheDir, when non-empty, memoizes visit outcomes on disk so
	// re-runs with overlapping configs skip completed visits.
	CacheDir string
	// SpillDir, when non-empty, streams each pipeline shard's completed
	// visits to a spill file in this directory, the only place a survey
	// keeps its full log: Results.Spills names the files a run committed,
	// SaveLog converts them into one log, and stats.FromSpills folds them
	// into a warm aggregate.
	SpillDir string
	// SpillOnly is read by nothing: every survey folds its visits into one
	// mergeable aggregate and keeps no log in memory, so memory grows by a
	// few words per site instead of with every visit.
	//
	// Deprecated: leave it unset.
	SpillOnly bool
	// CacheMaxBytes caps the visit cache's on-disk size; once entries
	// exceed it the least-recently-used are pruned (a manifest in the
	// cache directory tracks recency without directory scans). 0 means
	// unbounded.
	CacheMaxBytes int64
	// Resume, when set with SpillDir, makes RunSurvey crash-safe: before
	// crawling, the spill directory's files (including torn .partial
	// files a killed run left behind) are compacted into one stream of
	// durably committed sites, those sites are replayed into the
	// aggregate, and only the remainder is crawled. The resumed run's
	// report is byte-identical to an uninterrupted one. A fresh
	// directory resumes trivially (nothing committed, everything
	// crawled), so the flag is safe to leave on.
	Resume bool
	// SpillTap is a test seam forwarded to pipeline.Config.SpillTap:
	// fault-injection tests wrap each shard's spill file writer to tear
	// writes at deterministic points. Production runs leave it nil.
	SpillTap func(shard int, w io.Writer) io.Writer
}

// Study is a fully constructed experiment environment.
type Study struct {
	Cfg      Config
	Registry *webidl.Registry
	Web      *synthweb.Web
	Bindings *webapi.Bindings
	History  *firefoxhist.History
	CVEs     *cve.Database
	// Cache is the visit-outcome cache opened from Cfg.CacheDir, nil
	// when caching is off. Cache.Stats() reports hit/miss traffic.
	Cache *logstore.Cache

	codec  logstore.Codec
	server *webserver.Server
	// humanVisits runs the §6.2 human protocol on first use and memoizes
	// it: its visits depend only on the study, never on a survey, and
	// concurrent renders share the one run.
	humanVisits func() ([]humanVisit, error)
}

// humanVisit is what the scripted human observed on one sampled site.
type humanVisit struct {
	site   int
	counts map[int]int64
}

// Results bundles a completed survey.
type Results struct {
	// Log is set by no survey: a run keeps its measurements in Agg and, with
	// a SpillDir, in the spill files Spills names. No report reads it.
	//
	// Deprecated: SaveLog converts Spills into a log file, and
	// logstore.ReadSpillFiles(Spills...) reads them into a measure.Log.
	Log   *measure.Log
	Stats *crawler.Stats
	// Agg is the statistics source — the mergeable aggregate maintained
	// while the survey ran, one folded from spill files or a log, or an
	// immutable snapshot of one.
	Agg      stats.Source
	Analysis *analysis.Analysis
	// Resumed counts the sites replayed from a previous crashed life's
	// spill files rather than crawled; 0 for a fresh run.
	Resumed int
	// Spills names the spill files the survey committed under SpillDir, in
	// order: the compacted stream a resumed run replayed, then each
	// shard's file. They hold exactly this survey's visits, whatever else
	// the directory holds. Nil without a SpillDir.
	Spills []string
}

// NewStudy generates the study environment: WebIDL corpus, synthetic web,
// dispatch bindings, release history, and CVE database, all from the seed.
func NewStudy(cfg Config) (*Study, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("core: config requires a positive site count")
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 5
	}
	if len(cfg.Cases) == 0 {
		cfg.Cases = measure.AllCases()
	}
	if cfg.HumanSample == 0 {
		cfg.HumanSample = 92
	}
	if cfg.Resume && cfg.SpillDir == "" {
		return nil, fmt.Errorf("core: resume requires a spill directory")
	}

	if cfg.LogFormat == "" {
		cfg.LogFormat = "csv"
	}
	codec, err := logstore.ByName(cfg.LogFormat)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	reg, err := webidl.Generate(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: generating corpus: %w", err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: cfg.Sites, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("core: generating web: %w", err)
	}
	s := &Study{
		Cfg:      cfg,
		Registry: reg,
		Web:      web,
		Bindings: webapi.NewBindings(reg),
		History:  firefoxhist.New(reg),
		CVEs:     cve.Generate(cfg.Seed),
		codec:    codec,
	}
	s.humanVisits = sync.OnceValues(s.visitHumans)
	if cfg.CacheDir != "" {
		cache, err := logstore.OpenCacheLimited(cfg.CacheDir, len(reg.Features), s.cacheScope(), cfg.CacheMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		s.Cache = cache
	}
	if cfg.UseHTTP {
		srv, err := webserver.NewServer(web)
		if err != nil {
			return nil, fmt.Errorf("core: starting web server: %w", err)
		}
		s.server = srv
	}
	return s, nil
}

// Close releases study resources (the HTTP server, if any).
func (s *Study) Close() error {
	if s.server != nil {
		return s.server.Close()
	}
	return nil
}

// crawler builds the configured crawler, which runs the human-visit
// protocol of external validation.
func (s *Study) crawler() *crawler.Crawler {
	c := crawler.New(s.Web, s.Bindings, s.crawlConfig())
	if s.server != nil {
		srv := s.server
		c.NewFetcher = func() webserver.Fetcher { return webserver.NewHTTPFetcher(srv) }
	}
	return c
}

// crawlConfig is the survey methodology.
func (s *Study) crawlConfig() crawler.Config {
	ccfg := crawler.DefaultConfig(s.Cfg.Seed)
	ccfg.Rounds = s.Cfg.Rounds
	ccfg.Cases = s.Cfg.Cases
	return ccfg
}

// cacheScope fingerprints everything beyond (VisitSeed, case) that shapes a
// visit's outcome: the synthetic web (site count + generation seed) and the
// per-visit methodology. Rounds, cases, and engine geometry are deliberately
// absent — rounds and cases are part of the visit key, and geometry never
// changes results — so overlapping configs share cache entries while
// a different web or methodology can never replay stale outcomes.
func (s *Study) cacheScope() string {
	ccfg := s.crawlConfig()
	return fmt.Sprintf("sites=%d seed=%d branch=%d page=%g aps=%g novelty=%t creds=%t",
		s.Cfg.Sites, s.Cfg.Seed, ccfg.Branch, ccfg.PageSeconds, ccfg.ActionsPerSecond,
		ccfg.PathNoveltyPreference, ccfg.WithCredentials)
}

// RunSurvey executes the full automated survey on the pipeline engine.
func (s *Study) RunSurvey() (*Results, error) {
	return s.RunSurveyContext(context.Background())
}

// RunSurveyContext is RunSurvey with cancellation.
func (s *Study) RunSurveyContext(ctx context.Context) (*Results, error) {
	eng := s.pipeline()
	resumed := 0
	if s.Cfg.Resume {
		// Fold whatever the previous life durably committed — whole shard
		// files and the valid prefixes of torn .partial ones — into one
		// clean stream, replay it, and crawl the rest.
		comp, err := logstore.CompactSpillDir(s.Cfg.SpillDir, len(s.Registry.Features), s.domains())
		if err != nil {
			return nil, fmt.Errorf("core: scanning spill dir for resume: %w", err)
		}
		if len(comp.Committed) > 0 {
			committed := make(map[int]bool, len(comp.Committed))
			for _, site := range comp.Committed {
				committed[site] = true
			}
			remainder := make([]int, 0, len(s.Web.Sites)-len(comp.Committed))
			for i := range s.Web.Sites {
				if !committed[i] {
					remainder = append(remainder, i)
				}
			}
			eng.Cfg.ResumeSpills = []string{comp.Path}
			eng.Cfg.Sites = remainder
			resumed = len(comp.Committed)
		}
	}
	res, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	results := s.AggregateResults(res.Agg)
	results.Resumed, results.Spills = resumed, res.Spills
	return results, nil
}

// pipeline builds the configured survey engine.
func (s *Study) pipeline() *pipeline.Engine {
	eng := pipeline.New(s.Web, s.Bindings, pipeline.Config{
		Shards:          s.Cfg.Shards,
		WorkersPerShard: s.Cfg.ShardWorkers,
		BatchSize:       s.Cfg.BatchSize,
		Cache:           s.Cache,
		SpillDir:        s.Cfg.SpillDir,
		SpillTap:        s.Cfg.SpillTap,
		Crawl:           s.crawlConfig(),
	})
	if s.server != nil {
		srv := s.server
		eng.NewFetcher = func() webserver.Fetcher { return webserver.NewHTTPFetcher(srv) }
	}
	return eng
}

// spec is the JSON shape of the study specification a distributed
// coordinator ships to its workers: the survey methodology alone. Engine
// geometry (shards, workers, cache) stays worker-local — it never changes
// results, only speed.
type spec struct {
	Version int            `json:"version"`
	Sites   int            `json:"sites"`
	Seed    int64          `json:"seed"`
	Rounds  int            `json:"rounds"`
	Cases   []measure.Case `json:"cases"`
}

// specVersion is bumped whenever a change to study construction would make
// two builds of the same spec diverge; coordinator and workers must match.
const specVersion = 1

// Spec serializes the study's survey methodology for distributed workers
// (internal/dist): everything a worker needs to regenerate the identical
// corpus, synthetic web, and per-visit randomness. StudyFromSpec is the
// inverse.
func (s *Study) Spec() ([]byte, error) {
	return json.Marshal(spec{
		Version: specVersion,
		Sites:   s.Cfg.Sites,
		Seed:    s.Cfg.Seed,
		Rounds:  s.Cfg.Rounds,
		Cases:   s.Cfg.Cases,
	})
}

// StudyFromSpec builds a worker's study from a coordinator's spec. The
// spec's methodology fields override opts; opts supplies the worker-local
// engine configuration (Shards, ShardWorkers, CacheDir, …). The returned
// study keeps no spill directory of its own: a distributed worker streams
// each lease to its coordinator instead (CrawlSites).
func StudyFromSpec(data []byte, opts Config) (*Study, error) {
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("core: decoding study spec: %w", err)
	}
	if sp.Version != specVersion {
		return nil, fmt.Errorf("core: study spec version %d, this build speaks %d", sp.Version, specVersion)
	}
	opts.Sites = sp.Sites
	opts.Seed = sp.Seed
	opts.Rounds = sp.Rounds
	opts.Cases = sp.Cases
	opts.SpillDir = ""
	return NewStudy(opts)
}

// domains returns the study's site list, index-aligned with Web.Sites.
func (s *Study) domains() []string {
	out := make([]string, len(s.Web.Sites))
	for i, site := range s.Web.Sites {
		out[i] = site.Domain
	}
	return out
}

// Domains returns the survey's ranked site list as domain strings,
// index-aligned with the site indices spill streams and leases carry —
// what a distributed coordinator needs to validate seed spills against
// this exact study.
func (s *Study) Domains() []string { return s.domains() }

// CrawlSites crawls exactly the given site indices — a distributed lease —
// through a pipeline run, streaming the visits into spill as one
// complete spill stream (header first, then every observation, failure, and
// site-end marker). It matches dist.CrawlFunc; cmd/pipeline -worker wires
// it up.
func (s *Study) CrawlSites(ctx context.Context, sites []int, spill io.Writer) error {
	w, err := logstore.NewWriter(spill, len(s.Registry.Features), s.domains())
	if err != nil {
		return err
	}
	eng := s.pipeline()
	eng.Cfg.Sites = sites
	eng.Cfg.SpillDir = ""
	eng.Cfg.Spill = w
	if _, err := eng.Run(ctx); err != nil {
		return err
	}
	return w.Close() // flushes; the engine never closes an external writer
}

// AggregateResults wraps a statistics source — a survey's own aggregate, a
// distributed coordinator's merged total, one folded from spill files or a
// saved log, or an epoch snapshot served by the query server — in the
// Results shape every report path consumes, with its analysis attached.
func (s *Study) AggregateResults(src stats.Source) *Results {
	return &Results{
		Stats:    pipeline.SurveyStats(src, s.crawlConfig().PageSeconds),
		Agg:      src,
		Analysis: analysis.FromStats(src, s.Registry),
	}
}

// SpillGlob expands a spill-file glob in deterministic (sorted) order. A
// pattern matching zero files is an error — rendering an empty report from
// a typo'd glob helps nobody — as is a malformed pattern.
func SpillGlob(pattern string) ([]string, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("core: bad spill glob %q: %w", pattern, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: no spill files matched %q", pattern)
	}
	sort.Strings(paths)
	return paths, nil
}

// ResultsFromSpills reconstructs a Results from a run's per-shard spill
// files, streaming them through the mergeable stats layer — the full log is
// never materialized, so memory grows by a few words per site, not per
// visit. The
// spill files must come from a run of this study (same sites, same seed);
// every table and figure matches the live run's exactly.
func (s *Study) ResultsFromSpills(paths ...string) (*Results, error) {
	agg, err := stats.FromSpills(stats.StandardsOf(s.Registry), s.Cfg.Cases, paths...)
	if err != nil {
		return nil, fmt.Errorf("core: merging spills: %w", err)
	}
	return s.AggregateResults(agg), nil
}

// visitHumans runs the §6.2 protocol: the scripted human model visits a
// visit-weighted sample of the study's sites.
func (s *Study) visitHumans() ([]humanVisit, error) {
	sample := s.Web.Ranking.WeightedSample(s.Cfg.HumanSample, s.Cfg.Seed+909)
	c := s.crawler()
	var visits []humanVisit
	for i, rs := range sample {
		site := s.Web.Sites[rs.Rank-1]
		if site.Failure != synthweb.FailNone {
			continue
		}
		counts, err := c.HumanVisit(site, s.Cfg.Seed+int64(i))
		if err != nil {
			continue
		}
		visits = append(visits, humanVisit{site: site.Index, counts: counts})
	}
	if len(visits) == 0 {
		return nil, fmt.Errorf("core: external validation visited no sites")
	}
	return visits, nil
}

// RunExternalValidation performs the §6.2 comparison: for each site the
// scripted human visited, how many standards the human saw that the
// automated survey never did. The human visits run once per study.
func (s *Study) RunExternalValidation(results *Results) ([]int, error) {
	visits, err := s.humanVisits()
	if err != nil {
		return nil, err
	}
	deltas := make([]int, len(visits))
	for i, v := range visits {
		deltas[i] = results.Analysis.HumanDelta(v.site, v.counts)
	}
	return deltas, nil
}

// WriteReport renders every table and figure of the paper from the results'
// analysis and Table 1 stats, whichever survey, spill files, log or
// snapshot they came from.
func (s *Study) WriteReport(w io.Writer, results *Results) error {
	a := results.Analysis

	report.Figure1(w)
	fmt.Fprintln(w)
	report.Table1(w, results.Stats)
	fmt.Fprintln(w)
	report.Headlines(w, a, s.CVEs)
	fmt.Fprintln(w)
	report.Figure3(w, a)
	fmt.Fprintln(w)
	report.Figure4(w, a)
	fmt.Fprintln(w)
	report.Figure5(w, a.VisitWeightedPopularity(s.Web.Ranking))
	fmt.Fprintln(w)
	report.Figure6(w, a.AgeSeries(s.History))
	fmt.Fprintln(w)
	report.Figure7(w, a.AdVsTrackerRates())
	fmt.Fprintln(w)
	report.Table2(w, a.Table2(s.CVEs))
	fmt.Fprintln(w)
	report.Table3(w, a.NewStandardsPerRound())
	fmt.Fprintln(w)
	report.Figure8(w, a.Complexity())

	deltas, err := s.RunExternalValidation(results)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	report.Figure9(w, deltas)
	return nil
}

// WriteAggregateReport is WriteReport.
//
// Deprecated: every report path renders the whole paper; use WriteReport.
func (s *Study) WriteAggregateReport(w io.Writer, results *Results) error {
	return s.WriteReport(w, results)
}

// SaveLog converts the spill files a survey committed (results.Spills)
// into its measurement log and writes it to path in the configured format
// (Config.LogFormat). Logs written in any format load back through
// logstore.Read/ReadFile, which auto-detect.
func (s *Study) SaveLog(path string, results *Results) error {
	if len(results.Spills) == 0 {
		return fmt.Errorf("core: the survey committed no spill files to convert; run it with a SpillDir")
	}
	l, err := logstore.ReadSpillFiles(results.Spills...)
	if err != nil {
		return fmt.Errorf("core: reading the survey's spill files: %w", err)
	}
	return logstore.WriteFile(path, s.codec, l)
}

// Ranking exposes the study's Alexa model.
func (s *Study) Ranking() *alexa.Ranking { return s.Web.Ranking }

// StandardsCatalog exposes the standards catalog for reporting.
func (s *Study) StandardsCatalog() []standards.Standard { return standards.Catalog() }
