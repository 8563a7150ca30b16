package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/standards"
	"repro/internal/stats"
)

// Config parameterizes a query server.
type Config struct {
	// Study supplies everything beyond the measurements: the corpus, the
	// standards catalog, release history, CVE database, and the report
	// renderers. Required.
	Study *core.Study
	// Agg is the resident aggregate the server reads (and, in live
	// coordinator mode, the one lease commits merge into). Required.
	Agg *stats.Aggregate
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// RequestTimeout bounds how long one request may wait on the render
	// path; past it the client gets 503 (the render itself finishes and
	// lands in the cache). 0 disables the deadline.
	RequestTimeout time.Duration
	// Rate enables per-client rate limiting at this many requests/second
	// per client (keyed by RemoteAddr host, or the first X-Forwarded-For
	// hop under TrustForwarded). 0 disables the limiter.
	Rate float64
	// Burst is the per-client bucket capacity when Rate > 0. Values < 1
	// are raised to 1.
	Burst int
	// MaxRenders caps concurrently executing renders (distinct uncached
	// queries; identical ones already coalesce). 0 means GOMAXPROCS.
	MaxRenders int
	// Gzip compresses /report for clients that accept it; the compressed
	// bytes are built once per (epoch, query) alongside the plain ones.
	Gzip bool
	// TrustForwarded keys the rate limiter by the first X-Forwarded-For
	// hop. Enable only behind a proxy that overwrites that header —
	// trusting it from the open internet lets clients mint buckets.
	TrustForwarded bool

	// RenderHook, when non-nil, runs at the start of every executed
	// render with the endpoint name. It exists for the hardening tests:
	// counting invocations proves convoy collapse, and a sleeping hook
	// simulates a slow render.
	RenderHook func(endpoint string)
	// Now substitutes the limiter's clock in tests. nil means time.Now.
	Now func() time.Time
}

// coordStatus is the live-survey progress shown on /statusz.
type coordStatus struct {
	LeasesMerged int  `json:"leases_merged"`
	LeasesTotal  int  `json:"leases_total"`
	Done         bool `json:"done"`
}

// Server is the resident query server. It serves every analysis/report
// product over HTTP from epoch snapshots of its aggregate: readers never
// take the aggregate's locks, so queries and ingestion cannot contend.
type Server struct {
	study *core.Study
	agg   *stats.Aggregate
	cache *queryCache
	mux   *http.ServeMux
	logf  func(string, ...any)
	start time.Time

	// Hardening: the middleware-wrapped handler plus the controls it
	// threads requests through (see middleware.go).
	handler        http.Handler
	limiter        *limiter
	gate           *renderGate
	metrics        *metrics
	gzip           bool
	trustForwarded bool
	renderHook     func(string)

	// cur is the current epoch view, swapped RCU-style when the
	// aggregate's epoch advances past it.
	cur   atomic.Pointer[epochView]
	coord atomic.Pointer[coordStatus]
}

// epochView is everything derived from one snapshot epoch: the immutable
// snapshot itself plus the warm analysis over it, built once and shared by
// every query of the epoch. The analysis reads only the snapshot, so
// renders of different queries at one epoch run in parallel, up to the
// render gate.
type epochView struct {
	snap *stats.Snapshot
	res  *core.Results
}

// New builds a query server around a study and its resident aggregate.
func New(cfg Config) (*Server, error) {
	if cfg.Study == nil || cfg.Agg == nil {
		return nil, fmt.Errorf("serve: config requires a study and an aggregate")
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("serve: negative rate %v", cfg.Rate)
	}
	maxRenders := cfg.MaxRenders
	if maxRenders <= 0 {
		maxRenders = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		study:          cfg.Study,
		agg:            cfg.Agg,
		cache:          newQueryCache(),
		mux:            http.NewServeMux(),
		logf:           cfg.Logf,
		start:          time.Now(),
		gate:           newRenderGate(maxRenders),
		metrics:        newMetrics(),
		gzip:           cfg.Gzip,
		trustForwarded: cfg.TrustForwarded,
		renderHook:     cfg.RenderHook,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if cfg.Rate > 0 {
		s.limiter = newLimiter(cfg.Rate, cfg.Burst, cfg.Now)
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/report", s.handleReport)
	s.mux.HandleFunc("/api/top-features", s.handleTopFeatures)
	s.mux.HandleFunc("/api/feature-deltas", s.handleFeatureDeltas)
	s.mux.HandleFunc("/api/standards", s.handleStandards)
	s.mux.HandleFunc("/api/headlines", s.handleHeadlines)
	s.mux.HandleFunc("/api/complexity", s.handleComplexity)
	s.mux.HandleFunc("/api/rounds", s.handleRounds)
	// Outermost first: even 405s and 429s are metered, and nothing past
	// the limiter runs for a dropped request.
	s.handler = s.withMetrics(methodGuard(s.withRateLimit(withDeadline(cfg.RequestTimeout, s.mux))))
	return s, nil
}

// Handler returns the server's HTTP handler: the endpoint mux behind the
// hardening middleware (metrics, method guard, rate limit, deadline).
func (s *Server) Handler() http.Handler { return s.handler }

// view returns the epoch view for the aggregate's current snapshot,
// building one when the epoch advanced. Concurrent builders race on the
// CAS; losers retry and converge on the winner's view.
func (s *Server) view() *epochView {
	snap := s.agg.Snapshot()
	for {
		cur := s.cur.Load()
		if cur != nil && cur.snap.Epoch() >= snap.Epoch() {
			return cur
		}
		nv := &epochView{snap: snap, res: s.study.AggregateResults(snap)}
		if s.cur.CompareAndSwap(cur, nv) {
			return nv
		}
	}
}

// Coordinator binds a distributed-survey coordinator whose merge target is
// the server's resident aggregate: every lease a worker commits merges —
// and publishes a fresh snapshot epoch — into the tables the HTTP side is
// serving, so readers watch the survey fill in live. The caller runs
// Serve on the returned coordinator. A non-empty checkpointPath journals
// committed leases durably; a server restarted over the same file starts
// with those leases already merged — and already visible to HTTP readers —
// re-issuing only the rest (replayed commits surface in /status like live
// ones).
func (s *Server) Coordinator(addr string, leaseSites int, heartbeat time.Duration, checkpointPath string) (*dist.Coordinator, error) {
	spec, err := s.study.Spec()
	if err != nil {
		return nil, err
	}
	c, err := dist.Listen(addr, dist.CoordinatorConfig{
		Spec:             spec,
		NumSites:         len(s.study.Web.Sites),
		NumFeatures:      len(s.study.Registry.Features),
		Standards:        stats.StandardsOf(s.study.Registry),
		Cases:            s.study.Cfg.Cases,
		LeaseSites:       leaseSites,
		HeartbeatTimeout: heartbeat,
		CheckpointPath:   checkpointPath,
		Agg:              s.agg,
		OnLeaseMerged: func(merged, total int) {
			s.coord.Store(&coordStatus{LeasesMerged: merged, LeasesTotal: total, Done: merged == total})
		},
		Logf: s.logf,
	})
	if err != nil {
		return nil, err
	}
	// Leases replayed from a checkpoint merged during Listen; the status
	// must not reset them to zero.
	merged := c.Completed()
	s.coord.Store(&coordStatus{LeasesMerged: merged, LeasesTotal: c.Leases(), Done: merged == c.Leases()})
	return c, nil
}

// LoadSpills folds spill files matching the glob into a published
// aggregate sized for the study — the server's cold-start path from a
// spill-only run.
func LoadSpills(study *core.Study, glob string) (*stats.Aggregate, error) {
	paths, err := core.SpillGlob(glob)
	if err != nil {
		return nil, err
	}
	agg, err := stats.FromSpills(stats.StandardsOf(study.Registry), study.Cfg.Cases, paths...)
	if err != nil {
		return nil, err
	}
	agg.Publish()
	return agg, nil
}

// LoadLog replays a saved measurement log (any logstore format) into a
// published aggregate — the server's cold-start path from a -out file.
func LoadLog(study *core.Study, path string) (*stats.Aggregate, error) {
	log, err := logstore.ReadFile(path)
	if err != nil {
		return nil, err
	}
	agg, err := stats.FromLog(log, stats.StandardsOf(study.Registry), study.Cfg.Cases)
	if err != nil {
		return nil, err
	}
	agg.Publish()
	return agg, nil
}

// EmptyAggregate builds the published zero-state aggregate a live
// coordinator-mode server starts from.
func EmptyAggregate(study *core.Study) (*stats.Aggregate, error) {
	agg, err := stats.New(stats.Config{
		NumFeatures: len(study.Registry.Features),
		NumSites:    len(study.Web.Sites),
		Standards:   stats.StandardsOf(study.Registry),
		Cases:       study.Cfg.Cases,
	})
	if err != nil {
		return nil, err
	}
	agg.Publish()
	return agg, nil
}

// serveQuery is the shared handler skeleton: normalize the query, answer
// conditional GETs straight off the epoch (no render), hit the (epoch,
// key) cache, coalesce misses through the render gate, reply. Every
// cacheable endpoint goes through it.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, endpoint string,
	render func(v *epochView, p queryParams) ([]byte, string, error)) {
	key, p, err := normalizeQuery(endpoint, r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	v := s.view()
	epoch := v.snap.Epoch()
	// The body of any URL is a pure function of (URL, epoch), so the
	// epoch is the entire ETag: a matching If-None-Match revalidates
	// without touching the cache or the render path.
	if inm := r.Header.Get("If-None-Match"); inm != "" && ifNoneMatchMatches(inm, epochTag(epoch)) {
		s.notModified(w, epoch)
		return
	}
	if e, ok := s.cache.get(epoch, key); ok {
		s.reply(w, r, epoch, e, "hit")
		return
	}
	fl := s.gate.do(flightKey(epoch, key), func() (cacheEntry, error) {
		if s.renderHook != nil {
			s.renderHook(endpoint)
		}
		body, contentType, err := render(v, p)
		if err != nil {
			return cacheEntry{}, err
		}
		e := cacheEntry{body: body, contentType: contentType}
		if s.gzip && endpoint == "report" {
			e.gzipBody = gzipBytes(body)
		}
		s.metrics.renderDone(endpoint)
		s.cache.put(epoch, key, e)
		return e, nil
	})
	select {
	case <-fl.done:
		if fl.err != nil {
			http.Error(w, fl.err.Error(), http.StatusInternalServerError)
			return
		}
		s.reply(w, r, epoch, fl.entry, "miss")
	case <-r.Context().Done():
		// The render outlives this request and lands in the cache; the
		// retry this invites will be a hit.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "render deadline exceeded", http.StatusServiceUnavailable)
	}
}

func (s *Server) reply(w http.ResponseWriter, r *http.Request, epoch uint64, e cacheEntry, cache string) {
	h := w.Header()
	h.Set("Content-Type", e.contentType)
	h.Set("X-Epoch", fmt.Sprintf("%d", epoch))
	h.Set("X-Cache", cache)
	h.Set("ETag", etagHeader(epoch))
	if e.gzipBody != nil {
		h.Set("Vary", "Accept-Encoding")
		if acceptsGzip(r) {
			h.Set("Content-Encoding", "gzip")
			w.Write(e.gzipBody)
			return
		}
	}
	w.Write(e.body)
}

// notModified answers a successful revalidation: 304, no body, the
// current validator restated.
func (s *Server) notModified(w http.ResponseWriter, epoch uint64) {
	h := w.Header()
	h.Set("ETag", etagHeader(epoch))
	h.Set("X-Epoch", fmt.Sprintf("%d", epoch))
	w.WriteHeader(http.StatusNotModified)
}

// marshal renders a JSON response body.
func marshal(v any) ([]byte, string, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, "", err
	}
	return append(b, '\n'), "application/json", nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprintf(w, `survey query server
endpoints:
  /api/top-features   ?case=default|blocking|adblock|ghostery &n=15
  /api/feature-deltas ?profile=abp|ghostery|blocking &n=15
  /api/standards      ?case=blocking|adblock|ghostery
  /api/headlines
  /api/complexity
  /api/rounds
  /report             full aggregate text report (byte-identical to cmd/report)
  /healthz            liveness
  /statusz            epoch, cache, and survey progress
  /metrics            Prometheus text exposition
`)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// statuszResponse is the operator view of the server.
type statuszResponse struct {
	Epoch         uint64         `json:"epoch"`
	Sites         int            `json:"sites"`
	Features      int            `json:"features"`
	Cases         []measure.Case `json:"cases"`
	MeasuredSites int            `json:"measured_sites"`
	OpenSites     int            `json:"open_sites"`
	Invocations   int64          `json:"invocations"`
	PagesVisited  int64          `json:"pages_visited"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Cache         cacheStats     `json:"cache"`
	// RateLimited and InflightRenders mirror /metrics for operators who
	// read JSON; the histograms live only on /metrics.
	RateLimited     int64        `json:"rate_limited"`
	InflightRenders int64        `json:"inflight_renders"`
	Coordinator     *coordStatus `json:"coordinator,omitempty"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	snap := s.agg.Snapshot()
	inv, pages := snap.Totals()
	resp := statuszResponse{
		Epoch:           snap.Epoch(),
		Sites:           snap.NumSites(),
		Features:        snap.NumFeatures(),
		Cases:           snap.Cases(),
		MeasuredSites:   snap.MeasuredCount(),
		OpenSites:       snap.OpenSites(),
		Invocations:     inv,
		PagesVisited:    pages,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Cache:           s.cache.stats(),
		RateLimited:     s.metrics.rateLimited.Load(),
		InflightRenders: s.gate.inflight.Load(),
		Coordinator:     s.coord.Load(),
	}
	body, contentType, err := marshal(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(body)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, "report", func(v *epochView, _ queryParams) ([]byte, string, error) {
		var buf bytes.Buffer
		if err := s.study.WriteReport(&buf, v.res); err != nil {
			return nil, "", err
		}
		return buf.Bytes(), "text/plain; charset=utf-8", nil
	})
}

// featureRow is one row of /api/top-features.
type featureRow struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Sites    int     `json:"sites"`
	Fraction float64 `json:"fraction"`
}

type topFeaturesResponse struct {
	Epoch         uint64       `json:"epoch"`
	Case          measure.Case `json:"case"`
	MeasuredSites int          `json:"measured_sites"`
	Rows          []featureRow `json:"rows"`
}

func (s *Server) handleTopFeatures(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, "top-features", func(v *epochView, p queryParams) ([]byte, string, error) {
		resp := topFeaturesResponse{
			Epoch:         v.snap.Epoch(),
			Case:          p.Case,
			MeasuredSites: v.snap.MeasuredCount(),
			Rows:          []featureRow{},
		}
		for _, row := range v.res.Analysis.TopFeatures(p.Case, p.N) {
			resp.Rows = append(resp.Rows, featureRow{ID: row.ID, Name: row.Name, Sites: row.Sites, Fraction: row.Fraction})
		}
		return marshal(resp)
	})
}

// deltaRow is one row of /api/feature-deltas.
type deltaRow struct {
	ID           int     `json:"id"`
	Name         string  `json:"name"`
	DefaultSites int     `json:"default_sites"`
	BlockedSites int     `json:"blocked_sites"`
	Drop         int     `json:"drop"`
	DropRate     float64 `json:"drop_rate"`
}

type featureDeltasResponse struct {
	Epoch       uint64       `json:"epoch"`
	BlockedCase measure.Case `json:"blocked_case"`
	Rows        []deltaRow   `json:"rows"`
}

func (s *Server) handleFeatureDeltas(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, "feature-deltas", func(v *epochView, p queryParams) ([]byte, string, error) {
		resp := featureDeltasResponse{
			Epoch:       v.snap.Epoch(),
			BlockedCase: p.Blocked,
			Rows:        []deltaRow{},
		}
		for _, row := range v.res.Analysis.FeatureDeltas(measure.CaseDefault, p.Blocked, p.N) {
			resp.Rows = append(resp.Rows, deltaRow{
				ID: row.ID, Name: row.Name,
				DefaultSites: row.BaseSites, BlockedSites: row.BlockedSites,
				Drop: row.Drop, DropRate: row.DropRate,
			})
		}
		return marshal(resp)
	})
}

// standardRow is one row of /api/standards.
type standardRow struct {
	Abbrev    standards.Abbrev `json:"abbrev"`
	Name      string           `json:"name"`
	Features  int              `json:"features"`
	Sites     int              `json:"sites"`
	BlockRate float64          `json:"block_rate"`
}

type standardsResponse struct {
	Epoch       uint64        `json:"epoch"`
	BlockedCase measure.Case  `json:"blocked_case"`
	Rows        []standardRow `json:"rows"`
}

func (s *Server) handleStandards(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, "standards", func(v *epochView, p queryParams) ([]byte, string, error) {
		a := v.res.Analysis
		sites := a.StandardSites(measure.CaseDefault)
		rates := a.BlockRates(p.Case)
		resp := standardsResponse{Epoch: v.snap.Epoch(), BlockedCase: p.Case, Rows: []standardRow{}}
		for _, std := range standards.Catalog() {
			if sites[std.Abbrev] == 0 {
				continue
			}
			resp.Rows = append(resp.Rows, standardRow{
				Abbrev:    std.Abbrev,
				Name:      std.Name,
				Features:  std.Features,
				Sites:     sites[std.Abbrev],
				BlockRate: rates[std.Abbrev].Rate,
			})
		}
		sortStandardRows(resp.Rows)
		return marshal(resp)
	})
}

// sortStandardRows orders by popularity, ties by abbrev for determinism.
func sortStandardRows(rows []standardRow) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0; j-- {
			a, b := rows[j-1], rows[j]
			if a.Sites > b.Sites || (a.Sites == b.Sites && a.Abbrev <= b.Abbrev) {
				break
			}
			rows[j-1], rows[j] = b, a
		}
	}
}

type headlinesResponse struct {
	Epoch                 uint64  `json:"epoch"`
	Features              int     `json:"features"`
	NeverUsedDefault      int     `json:"never_used_default"`
	UnderOnePctDefault    int     `json:"under_one_pct_default"`
	NeverUsedBlocking     int     `json:"never_used_blocking"`
	UnderOnePctBlocking   int     `json:"under_one_pct_blocking"`
	StandardsObserved     int     `json:"standards_observed_default"`
	StandardsObservedBlk  int     `json:"standards_observed_blocking"`
	StandardsTotal        int     `json:"standards_total"`
	MeasuredSites         int     `json:"measured_sites"`
	CVEsMappedToStandards int     `json:"cves_mapped_to_standards"`
	Invocations           int64   `json:"invocations"`
	PagesVisited          int64   `json:"pages_visited"`
	InteractionDays       float64 `json:"interaction_days"`
}

func (s *Server) handleHeadlines(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, "headlines", func(v *epochView, _ queryParams) ([]byte, string, error) {
		a := v.res.Analysis
		def := a.Bands(measure.CaseDefault)
		blk := a.Bands(measure.CaseBlocking)
		inv, pages := v.snap.Totals()
		return marshal(headlinesResponse{
			Epoch:                 v.snap.Epoch(),
			Features:              def.Total,
			NeverUsedDefault:      def.NeverUsed,
			UnderOnePctDefault:    def.UnderOnePct,
			NeverUsedBlocking:     blk.NeverUsed,
			UnderOnePctBlocking:   blk.UnderOnePct,
			StandardsObserved:     a.UsedStandards(measure.CaseDefault),
			StandardsObservedBlk:  a.UsedStandards(measure.CaseBlocking),
			StandardsTotal:        standards.Count(),
			MeasuredSites:         v.snap.MeasuredCount(),
			CVEsMappedToStandards: len(s.study.CVEs.Mapped()),
			Invocations:           inv,
			PagesVisited:          pages,
			InteractionDays:       v.res.Stats.InteractionSeconds / 86400,
		})
	})
}

type complexityResponse struct {
	Epoch uint64 `json:"epoch"`
	// Series is standards-per-measured-site, ascending.
	Series []int `json:"series"`
}

func (s *Server) handleComplexity(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, "complexity", func(v *epochView, _ queryParams) ([]byte, string, error) {
		series := v.res.Analysis.Complexity()
		if series == nil {
			series = []int{}
		}
		return marshal(complexityResponse{Epoch: v.snap.Epoch(), Series: series})
	})
}

type roundsResponse struct {
	Epoch uint64 `json:"epoch"`
	// AvgNewStandards[r] is Table 3's series: the average number of
	// standards first observed in round r across measured sites.
	AvgNewStandards []float64 `json:"avg_new_standards"`
}

func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, "rounds", func(v *epochView, _ queryParams) ([]byte, string, error) {
		series := v.res.Analysis.NewStandardsPerRound()
		if series == nil {
			series = []float64{}
		}
		return marshal(roundsResponse{Epoch: v.snap.Epoch(), AvgNewStandards: series})
	})
}
