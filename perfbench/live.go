package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logstore"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The live workload feeds the query server as a distributed coordinator:
// one in-process dist worker commits liveLeases leases of generated visits
// over loopback. After every commit, and at the initial epoch, a probe
// reads the headlines until the commit shows, then two in-process clients
// read the other dashboard URLs concurrently, each its share (the renders),
// then liveRounds rounds of the whole mix concurrently, alternating plain
// reads (cache hits) with revalidations that carry the last ETag (304s).
// Commits and reads alternate, so a pass renders exactly (liveLeases+1) ×
// liveRenderURLs times.
const (
	liveLeases  = 40
	liveRounds  = 40
	liveClients = 2
	// liveProbeClient is the client ID of the reader that waits for each
	// commit to become visible.
	liveProbeClient = liveClients
)

// dashboardRequest is one request of the dashboard mix.
type dashboardRequest struct {
	path string
	gzip bool
}

// dashboard is the mix the clients read. The gzip /report shares the plain
// one's cache entry, so liveRenderURLs distinct answers render per epoch.
var dashboard = []dashboardRequest{
	{path: "/api/headlines"}, // the probe's URL: read first at every epoch
	{path: "/api/top-features?n=25"},
	{path: "/api/feature-deltas?profile=abp"},
	{path: "/api/standards"},
	{path: "/api/complexity"},
	{path: "/api/rounds"},
	{path: "/report"},
	{path: "/report", gzip: true},
}

const liveRenderURLs = 7

// answer is one response a client read.
type answer struct {
	client  int
	path    string
	status  int
	epoch   uint64
	cache   string // X-Cache: "hit" or "miss"; empty for 304s
	etag    string
	body    []byte // decoded; nil for 304s
	latency time.Duration
}

// liveChecker checks every answer: status 200 or 304, one body per (URL,
// epoch), and no client seeing the epoch go backwards.
type liveChecker struct {
	mu        sync.Mutex
	lastEpoch map[int]uint64
	bodies    map[string][sha256.Size]byte
}

func newLiveChecker() *liveChecker {
	return &liveChecker{lastEpoch: make(map[int]uint64), bodies: make(map[string][sha256.Size]byte)}
}

func (c *liveChecker) observe(a *answer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a.status != http.StatusOK && a.status != http.StatusNotModified {
		return fmt.Errorf("live: %s answered %d", a.path, a.status)
	}
	if a.epoch < c.lastEpoch[a.client] {
		return fmt.Errorf("live: client %d saw epoch %d after %d", a.client, a.epoch, c.lastEpoch[a.client])
	}
	c.lastEpoch[a.client] = a.epoch
	if a.status != http.StatusOK {
		return nil
	}
	key := a.path + "@" + strconv.FormatUint(a.epoch, 10)
	sum := sha256.Sum256(a.body)
	if prev, ok := c.bodies[key]; ok && prev != sum {
		return fmt.Errorf("live: two bodies for %s at epoch %d", a.path, a.epoch)
	}
	c.bodies[key] = sum
	return nil
}

// liveClient is one reader of the server.
type liveClient struct {
	id   int
	h    http.Handler
	etag map[string]string // last ETag seen per path
}

// do sends one request straight to the server's handler and times the
// handler call.
func (c *liveClient) do(req dashboardRequest, conditional bool) (*answer, error) {
	hr := httptest.NewRequest(http.MethodGet, req.path, nil)
	if req.gzip {
		hr.Header.Set("Accept-Encoding", "gzip")
	}
	if tag := c.etag[req.path]; conditional && tag != "" {
		hr.Header.Set("If-None-Match", tag)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	c.h.ServeHTTP(rec, hr)
	a := &answer{client: c.id, path: req.path, status: rec.Code, latency: time.Since(t0)}
	hdr := rec.Result().Header
	a.cache = hdr.Get("X-Cache")
	a.etag = hdr.Get("ETag")
	if e := hdr.Get("X-Epoch"); e != "" {
		n, err := strconv.ParseUint(e, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("live: bad X-Epoch %q", e)
		}
		a.epoch = n
	}
	if rec.Code == http.StatusOK {
		a.body = rec.Body.Bytes()
		if hdr.Get("Content-Encoding") == "gzip" {
			zr, err := gzip.NewReader(bytes.NewReader(a.body))
			if err != nil {
				return nil, fmt.Errorf("live: %s gzip body: %w", req.path, err)
			}
			if a.body, err = io.ReadAll(zr); err != nil {
				return nil, fmt.Errorf("live: %s gzip body: %w", req.path, err)
			}
		}
		if a.etag != "" {
			c.etag[req.path] = a.etag
		}
	}
	return a, nil
}

// leaseDone is what the worker's lease function reports per lease.
type leaseDone struct {
	start, generated, encoded time.Time
	bytes                     int64
	stream                    []byte // kept in traced passes only
}

type countingWriter struct {
	w   io.Writer
	n   int64
	buf *bytes.Buffer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if c.buf != nil {
		c.buf.Write(p[:n])
	}
	return n, err
}

// livePassResult is one pass's measurements.
type livePassResult struct {
	// serving is the pass's wall time from the first read of the initial
	// epoch to the end of the last epoch's reads, less the time the lease
	// function spent generating visits and the benchmark spent checking
	// answers: the commits, renders and reads.
	serving   time.Duration
	queryRate float64
	renders   []time.Duration
	// epochRenders is, per epoch, the wall time of the clients' concurrent
	// first reads.
	epochRenders          []time.Duration
	hits, notModified     []time.Duration
	visible, commits      []time.Duration
	encodes, views        []time.Duration
	leases                int
	leaseBytes            int64
	streams               [][]byte
	rendersRun, coalesced int
}

func runLive(r *run) error {
	study, t, want, err := paperStudy(r)
	if err != nil {
		return err
	}
	defer study.Close()
	leaseSites := (paperSites + liveLeases - 1) / liveLeases

	var serving, servingWall, rates, hitP50, nmP50, rP50, erP50, cP50 []float64
	var mem memSeries
	var untracedWall, tracedWall []time.Duration
	var last *livePassResult
	var lastTracer *tracer
	err = r.passes(3, func(i int, timed bool) (func(float64), error) {
		var m memPhase
		m.start()
		t0 := time.Now()
		res, err := livePass(r, study, t, want, leaseSites, nil)
		wall := time.Since(t0)
		m.stop()
		if err != nil {
			return nil, err
		}
		hit, nm := median(ms(res.hits)), median(ms(res.notModified))
		rd, er, c := median(ms(res.renders)), median(ms(res.epochRenders)), median(ms(res.visible))
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: serving %.4fs, %.0f queries/s, hit p50 %.4fms, 304 p50 %.4fms, render p50 %.4fms, epoch renders p50 %.4fms, commit visible p50 %.3fms\n",
			i+1, res.serving.Seconds(), res.queryRate, hit, nm, rd, er, c)
		keep := func(stolen float64) {
			serving = append(serving, unstolen(res.serving, stolen))
			servingWall = append(servingWall, res.serving.Seconds())
			rates = append(rates, res.queryRate)
			hitP50, nmP50 = append(hitP50, hit), append(nmP50, nm)
			rP50, erP50, cP50 = append(rP50, rd), append(erP50, er), append(cP50, c)
			mem.add(&m)
		}
		if !r.traced || !timed {
			return keep, nil
		}
		runtime.GC()
		tr := newTracer()
		t0 = time.Now()
		traced, err := livePass(r, study, t, want, leaseSites, tr)
		if err != nil {
			return nil, err
		}
		tracedPass := time.Since(t0)
		return func(stolen float64) {
			keep(stolen)
			tracedWall = append(tracedWall, tracedPass)
			untracedWall = append(untracedWall, wall)
			last, lastTracer = traced, tr
		}, nil
	})
	if err != nil {
		return err
	}
	if !r.traced {
		r.set("pass_s", "s", median(serving), len(serving))
		r.phases["pass_wall_s"] = median(servingWall)
		r.phases["hit_p50_ms"] = median(hitP50)
		r.phases["not_modified_p50_ms"] = median(nmP50)
		r.phases["render_p50_ms"] = median(rP50)
		r.phases["epoch_render_ms"] = median(erP50)
		r.phases["commit_visible_p50_ms"] = median(cP50)
		r.phases["query_per_s"] = median(rates)
		return nil
	}
	// The read rate needs both cores to itself, so a co-tenant's burst on
	// the host moves it more than the end-to-end bounds allow; it is a
	// per-layer number, from the untraced passes.
	r.set("serve.query_per_s", "1/s", median(rates), len(rates))
	if r.primary() {
		mem.report(r)
		un := median(secs(untracedWall))
		r.set("trace.overhead_pct", "%", 100*(median(secs(tracedWall))-un)/un, len(tracedWall))
	}
	return liveLayers(r, study, last, lastTracer)
}

// livePass runs one live survey: a fresh server and empty aggregate, a
// coordinator on loopback, one worker, and the two clients.
func livePass(r *run, study *core.Study, t *truth, want *tally, leaseSites int, tr *tracer) (*livePassResult, error) {
	agg, err := serve.EmptyAggregate(study)
	if err != nil {
		return nil, err
	}
	// cmd/serve's default hardening: a 15 s request deadline and gzip.
	srv, err := serve.New(serve.Config{Study: study, Agg: agg, RequestTimeout: 15 * time.Second, Gzip: true})
	if err != nil {
		return nil, err
	}
	coord, err := srv.Coordinator("127.0.0.1:0", leaseSites, 10*time.Second, "")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	proceed := make(chan struct{})
	done := make(chan leaseDone)
	lease := func(ctx context.Context, sites []int, spill io.Writer) error {
		select {
		case <-proceed:
		case <-ctx.Done():
			return ctx.Err()
		}
		ld := leaseDone{start: time.Now()}
		obs := t.observations(r.seed, sites)
		ld.generated = time.Now()
		cw := &countingWriter{w: spill}
		if tr != nil {
			cw.buf = new(bytes.Buffer)
		}
		w, err := logstore.NewWriter(cw, t.numFeatures, t.domains)
		if err != nil {
			return err
		}
		if err := t.writeSpill(w, obs, sites); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		ld.encoded = time.Now()
		ld.bytes = cw.n
		if cw.buf != nil {
			ld.stream = cw.buf.Bytes()
		}
		select {
		case done <- ld:
		case <-ctx.Done():
			return ctx.Err()
		}
		return nil
	}
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := coord.Serve(ctx)
		errs <- err
	}()
	go func() {
		defer wg.Done()
		errs <- dist.Run(ctx, dist.WorkerConfig{
			Addr:  coord.Addr(),
			Build: func([]byte) (dist.CrawlFunc, error) { return lease, nil },
		})
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()

	res := &livePassResult{}
	check := newLiveChecker()
	clients := make([]*liveClient, liveClients+1)
	for i := range clients {
		clients[i] = &liveClient{id: i, h: srv.Handler(), etag: make(map[string]string)}
	}
	root := tr.begin("live.pass", 0, tr.newOp())
	// The epoch the clients last read; the initial one is read like any
	// other.
	var epoch uint64
	var readWall, generating, checking time.Duration
	var reads int
	servingStart := time.Now()
	for k := 0; k <= coord.Leases(); k++ {
		op := tr.newOp()
		var finished time.Time
		if k > 0 {
			wait := tr.begin("dist.lease_wait", root, op)
			select {
			case proceed <- struct{}{}:
			case err := <-errs:
				return nil, fmt.Errorf("live: survey ended before lease %d: %v", k, err)
			}
			var ld leaseDone
			select {
			case ld = <-done:
			case err := <-errs:
				return nil, fmt.Errorf("live: survey ended during lease %d: %v", k, err)
			}
			tr.end(wait)
			generating += ld.generated.Sub(ld.start)
			finished = ld.encoded
			res.leases++
			res.leaseBytes += ld.bytes
			res.encodes = append(res.encodes, ld.encoded.Sub(ld.generated))
			if ld.stream != nil {
				res.streams = append(res.streams, ld.stream)
			}
			if tr != nil {
				// The served aggregate's epoch advancing is the commit.
				id := tr.begin("dist.commit", root, op)
				deadline := time.Now().Add(30 * time.Second)
				for agg.Epoch() <= epoch && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				tr.end(id)
				res.commits = append(res.commits, time.Since(ld.encoded))
			}
		}
		// The probe waits for the commit to show, revalidating the
		// headlines: the first 200 at a newer epoch is that epoch's
		// render of them.
		probe := clients[liveProbeClient]
		id := tr.begin("serve.visible", root, op)
		start := time.Now()
		var first *answer
		for {
			a, err := probe.do(dashboard[0], true)
			if err != nil {
				return nil, err
			}
			if !observe(r, check, a) {
				return nil, fmt.Errorf("live: probe answered %d", a.status)
			}
			if a.status == http.StatusOK && a.epoch > epoch {
				first = a
				break
			}
			if time.Since(start) > 30*time.Second {
				return nil, fmt.Errorf("live: lease %d never became visible", k)
			}
			time.Sleep(50 * time.Microsecond)
		}
		if k > 0 {
			res.visible = append(res.visible, time.Since(finished))
		}
		tr.end(id)
		epoch = first.epoch
		res.renders = append(res.renders, first.latency)

		// Renders: the two clients read the remaining URLs of the new
		// epoch concurrently, each its share, as two dashboards open at
		// once.
		id = tr.begin("serve.first_reads", root, op)
		t0 := time.Now()
		answers, err := readAll(clients[:liveClients], func(c *liveClient) ([]*answer, error) {
			var out []*answer
			for u := 1 + c.id; u < liveRenderURLs; u += liveClients {
				a, err := c.do(dashboard[u], false)
				if err != nil {
					return nil, err
				}
				tr.recordLatency("serve.render", id, op, a.latency)
				out = append(out, a)
			}
			return out, nil
		})
		res.epochRenders = append(res.epochRenders, time.Since(t0))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		c0 := time.Now()
		for _, a := range answers {
			res.renders = append(res.renders, a.latency)
		}
		observeAll(r, check, answers)
		checking += time.Since(c0)

		// Reads: the whole mix, alternating plain reads and
		// revalidations.
		id = tr.begin("serve.reads", root, op)
		t0 = time.Now()
		answers, err = readAll(clients[:liveClients], func(c *liveClient) ([]*answer, error) {
			out := make([]*answer, 0, liveRounds*len(dashboard))
			for round := 0; round < liveRounds; round++ {
				for _, req := range dashboard {
					a, err := c.do(req, round%2 == 1)
					if err != nil {
						return nil, err
					}
					out = append(out, a)
				}
			}
			return out, nil
		})
		readWall += time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		reads += len(answers)
		c0 = time.Now()
		for _, a := range answers {
			if a.status == http.StatusNotModified {
				res.notModified = append(res.notModified, a.latency)
				tr.recordLatency("serve.not_modified", id, op, a.latency)
			} else {
				res.hits = append(res.hits, a.latency)
				tr.recordLatency("serve.hit", id, op, a.latency)
			}
			if a.status == http.StatusOK && a.cache != "hit" {
				r.check(fmt.Errorf("live: %s answered a %q read after its render at epoch %d", a.path, a.cache, a.epoch))
			}
			if a.epoch != epoch {
				r.check(fmt.Errorf("live: %s answered epoch %d, the served epoch is %d", a.path, a.epoch, epoch))
			}
		}
		id = tr.begin("bench.check", root, op)
		observeAll(r, check, answers)
		tr.end(id)
		checking += time.Since(c0)
		if tr != nil {
			id = tr.begin("serve.view", root, op)
			t0 := time.Now()
			study.AggregateResults(agg.Snapshot())
			res.views = append(res.views, time.Since(t0))
			tr.end(id)
		}
	}
	res.serving = time.Since(servingStart) - generating - checking
	// The coordinator finishes once every lease merged, and sends the
	// worker its shutdown.
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !r.op("distributed survey", err) {
				return nil, err
			}
		case <-time.After(60 * time.Second):
			return nil, fmt.Errorf("live: survey did not finish")
		}
	}
	tr.end(root)
	res.queryRate = float64(reads) / readWall.Seconds()

	renders, err := metricSum(srv.Handler(), "serve_renders_total")
	if err != nil {
		return nil, err
	}
	res.rendersRun = renders
	res.coalesced = len(res.renders) - renders
	r.check(checkRenders(renders, coord.Leases()+1))
	r.check(t.compareSource("live aggregate", want, agg))
	return res, nil
}

// checkRenders checks that every URL rendered once per epoch.
func checkRenders(renders, epochs int) error {
	if want := epochs * liveRenderURLs; renders != want {
		return fmt.Errorf("live: %d renders over %d epochs, want %d", renders, epochs, want)
	}
	return nil
}

// observe counts an answer as an operation, failed when the server
// answered neither 200 nor 304, and runs the answer checks on the rest. It
// reports whether the operation succeeded.
func observe(r *run, c *liveChecker, a *answer) bool {
	err := c.observe(a)
	if a.status != http.StatusOK && a.status != http.StatusNotModified {
		return r.op(a.path, err)
	}
	r.op(a.path, nil)
	r.check(err)
	return true
}

func observeAll(r *run, c *liveChecker, answers []*answer) {
	for _, a := range answers {
		observe(r, c, a)
	}
}

// readAll runs one read function per client concurrently and gathers the
// answers.
func readAll(clients []*liveClient, read func(*liveClient) ([]*answer, error)) ([]*answer, error) {
	outs := make([][]*answer, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *liveClient) {
			defer wg.Done()
			outs[i], errs[i] = read(c)
		}(i, c)
	}
	wg.Wait()
	var all []*answer
	for i := range clients {
		if errs[i] != nil {
			return nil, errs[i]
		}
		all = append(all, outs[i]...)
	}
	return all, nil
}

// metricSum sums every sample of a counter the server's /metrics exposes.
func metricSum(h http.Handler, name string) (int, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("live: /metrics answered %d", rec.Code)
	}
	sum := 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		f := strings.Fields(line)
		n, err := strconv.Atoi(f[len(f)-1])
		if err != nil {
			return 0, fmt.Errorf("live: /metrics line %q: %w", line, err)
		}
		sum += n
	}
	return sum, nil
}

// liveLayers turns the last traced pass into per-layer metrics, and
// re-drives its lease streams through the fold and merge the coordinator
// runs per commit.
func liveLayers(r *run, study *core.Study, res *livePassResult, tr *tracer) error {
	if res == nil {
		return fmt.Errorf("no traced live pass completed")
	}
	stdOf := stats.StandardsOf(study.Registry)
	target, err := serve.EmptyAggregate(study)
	if err != nil {
		return err
	}
	var folds, merges []time.Duration
	for _, stream := range res.streams {
		t0 := time.Now()
		s, err := logstore.OpenSpills(bytes.NewReader(stream))
		if err != nil {
			return err
		}
		la, err := stats.FromSpillStream(stdOf, study.Cfg.Cases, s)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := target.Merge(la); err != nil {
			return err
		}
		folds = append(folds, t1.Sub(t0))
		merges = append(merges, time.Since(t1))
	}
	r.set("stats.lease_fold_ms.p50", "ms", quantile(ms(folds), 0.5), len(folds))
	r.set("stats.merge_ms.p50", "ms", quantile(ms(merges), 0.5), len(merges))
	r.set("logstore.lease_encode_ms.p50", "ms", quantile(ms(res.encodes), 0.5), len(res.encodes))
	r.set("dist.leases", "count", float64(res.leases), 1)
	r.set("dist.lease_bytes", "bytes", float64(res.leaseBytes), 1)
	r.set("dist.commit_ms.p50", "ms", quantile(ms(res.commits), 0.5), len(res.commits))
	r.set("serve.view_ms.p50", "ms", quantile(ms(res.views), 0.5), len(res.views))
	r.set("serve.epoch_render_ms.p50", "ms", quantile(ms(res.epochRenders), 0.5), len(res.epochRenders))
	r.set("serve.render_ms.p50", "ms", quantile(ms(res.renders), 0.5), len(res.renders))
	r.set("serve.render_ms.p99", "ms", quantile(ms(res.renders), 0.99), len(res.renders))
	r.set("serve.renders", "count", float64(res.rendersRun), 1)
	r.set("serve.coalesced", "count", float64(res.coalesced), 1)
	r.set("serve.hit_us.p50", "us", quantile(us(res.hits), 0.5), len(res.hits))
	r.set("serve.hit_us.p99", "us", quantile(us(res.hits), 0.99), len(res.hits))
	r.set("serve.not_modified_us.p50", "us", quantile(us(res.notModified), 0.5), len(res.notModified))
	r.set("serve.not_modified_us.p99", "us", quantile(us(res.notModified), 0.99), len(res.notModified))
	return r.finishTrace(tr)
}
