package serve_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/serve"
	"repro/internal/stats"
)

// This file is the behavioral proof for the hardening controls: every
// knob cmd/serve exposes for untrusted traffic has a table here showing
// the exact HTTP behavior it buys — convoy collapse, 429/Retry-After,
// ETag revalidation, deadline 503s, gzip round-trips, and the
// GET/HEAD-only contract.

// fakeClock drives the rate limiter deterministically.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(int64(time.Hour)) // arbitrary nonzero origin
	return c
}

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// advanceEpoch feeds one measured site into the aggregate and publishes,
// so the served epoch moves and every cached body goes stale.
func advanceEpoch(t *testing.T, agg *stats.Aggregate, site int) {
	t.Helper()
	sf := measure.NewBitset(agg.NumFeatures())
	sf.Set(site % agg.NumFeatures())
	if err := agg.AddVisit(stats.Visit{Case: measure.CaseDefault, Site: site, Features: sf, Invocations: 1, Pages: 1}); err != nil {
		t.Fatal(err)
	}
	if err := agg.EndSite(site); err != nil {
		t.Fatal(err)
	}
	agg.Publish()
}

// doReq issues one request with extra headers and returns the response
// (body fully read, connection released).
func doReq(t *testing.T, ts *httptest.Server, method, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestMethodGuard pins the read-only contract across every endpoint —
// including /healthz and /statusz, which historically accepted any
// method: non-GET/HEAD gets 405 with an Allow header, GET and HEAD pass.
func TestMethodGuard(t *testing.T) {
	ts, _ := emptyServerCfg(t, nil)
	endpoints := []string{
		"/", "/healthz", "/statusz", "/metrics", "/report",
		"/api/top-features", "/api/feature-deltas", "/api/standards",
		"/api/headlines", "/api/complexity", "/api/rounds",
	}
	for _, ep := range endpoints {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
			resp, _ := doReq(t, ts, method, ep, nil)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, ep, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s Allow = %q, want \"GET, HEAD\"", method, ep, allow)
			}
		}
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			resp, _ := doReq(t, ts, method, ep, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s = %d, want 200", method, ep, resp.StatusCode)
			}
		}
	}
}

// TestConvoyCollapses is the single-flight proof: 8 concurrent identical
// uncached queries behind a deliberately slow render trigger exactly one
// render, and every reader gets the same complete body.
func TestConvoyCollapses(t *testing.T) {
	var renders atomic.Int64
	ts, _ := emptyServerCfg(t, func(cfg *serve.Config) {
		cfg.RenderHook = func(endpoint string) {
			renders.Add(1)
			time.Sleep(300 * time.Millisecond) // a slow render: the convoy window
		}
	})

	const readers = 8
	bodies := make([][]byte, readers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, body := doReq(t, ts, http.MethodGet, "/report", nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reader %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = body
		}(i)
	}
	close(start)
	wg.Wait()

	if n := renders.Load(); n != 1 {
		t.Errorf("%d concurrent identical queries triggered %d renders, want exactly 1", readers, n)
	}
	for i := 1; i < readers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("reader %d saw a different body than reader 0", i)
		}
	}
}

// TestDistinctRendersRunConcurrently proves that renders of different
// URLs at one epoch run in parallel up to the render gate: each render's
// hook holds it open until the other render has started too, so renders
// that took turns would leave the first one waiting out its deadline.
// Under -race it also checks that the two renders share the epoch's
// analysis safely.
func TestDistinctRendersRunConcurrently(t *testing.T) {
	var started sync.WaitGroup
	started.Add(2)
	both := make(chan struct{})
	go func() {
		started.Wait()
		close(both)
	}()
	var waitedAlone atomic.Bool
	ts, agg := emptyServerCfg(t, func(cfg *serve.Config) {
		cfg.MaxRenders = 2
		cfg.RenderHook = func(string) {
			started.Done()
			select {
			case <-both:
			case <-time.After(5 * time.Second):
				waitedAlone.Store(true)
			}
		}
	})
	advanceEpoch(t, agg, 3)

	var wg sync.WaitGroup
	for _, path := range []string{"/report", "/api/standards?case=blocking"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
				t.Errorf("%s: status %d, X-Cache %q; want an uncached 200", path, resp.StatusCode, resp.Header.Get("X-Cache"))
			}
		}(path)
	}
	wg.Wait()
	if waitedAlone.Load() {
		t.Error("a render waited 5s for the other to start: renders of one epoch ran one at a time")
	}
}

// TestRateLimit drives the token bucket on a fake clock: burst spends
// down to a 429 with the exact Retry-After, refill restores service at
// the configured rate, and operator paths are exempt.
func TestRateLimit(t *testing.T) {
	clock := newFakeClock()
	ts, _ := emptyServerCfg(t, func(cfg *serve.Config) {
		cfg.Rate = 1 // 1 token/second
		cfg.Burst = 3
		cfg.Now = clock.now
	})

	for i := 0; i < 3; i++ {
		resp, _ := doReq(t, ts, http.MethodGet, "/api/headlines", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d inside burst: status %d", i+1, resp.StatusCode)
		}
	}
	resp, body := doReq(t, ts, http.MethodGet, "/api/headlines", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past burst: status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (1 token at 1 token/s)", ra)
	}

	// Operator endpoints never rate-limit, even with the bucket dry.
	for _, ep := range []string{"/healthz", "/metrics"} {
		if resp, _ := doReq(t, ts, http.MethodGet, ep, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("%s rate-limited (status %d); operator paths must be exempt", ep, resp.StatusCode)
		}
	}

	// Honoring the Retry-After restores exactly one token.
	clock.advance(time.Second)
	if resp, _ := doReq(t, ts, http.MethodGet, "/api/headlines", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("after Retry-After elapsed: status %d, want 200", resp.StatusCode)
	}
	if resp, _ := doReq(t, ts, http.MethodGet, "/api/headlines", nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second request after 1s refill: status %d, want 429 (only one token landed)", resp.StatusCode)
	}

	// Half a token is not a token.
	clock.advance(500 * time.Millisecond)
	if resp, _ := doReq(t, ts, http.MethodGet, "/api/headlines", nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("at half a token: status %d, want 429", resp.StatusCode)
	}
}

// TestETagRevalidation pins the conditional-GET contract: the ETag is the
// epoch, matching If-None-Match revalidates with a bodyless 304 without
// rendering, and an epoch advance makes the old validator stale.
func TestETagRevalidation(t *testing.T) {
	var renders atomic.Int64
	ts, agg := emptyServerCfg(t, func(cfg *serve.Config) {
		cfg.RenderHook = func(string) { renders.Add(1) }
	})

	resp, body := doReq(t, ts, http.MethodGet, "/report", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("initial /report: status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `W/"e`) {
		t.Fatalf("ETag = %q, want a weak epoch tag", etag)
	}
	rendersAfterFirst := renders.Load()

	table := []struct {
		name string
		inm  string
		want int
	}{
		{"exact-weak", etag, http.StatusNotModified},
		{"strong-form", strings.TrimPrefix(etag, "W/"), http.StatusNotModified},
		{"star", "*", http.StatusNotModified},
		{"multi-value", `"zzz", ` + etag + `, "yyy"`, http.StatusNotModified},
		{"stale-tag", `W/"e999999"`, http.StatusOK},
		{"garbage", `not-even-quoted`, http.StatusOK},
		{"empty-quotes", `""`, http.StatusOK},
	}
	for _, tc := range table {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doReq(t, ts, http.MethodGet, "/report", map[string]string{"If-None-Match": tc.inm})
			if resp.StatusCode != tc.want {
				t.Fatalf("If-None-Match %q: status %d, want %d", tc.inm, resp.StatusCode, tc.want)
			}
			if tc.want == http.StatusNotModified {
				if len(body) != 0 {
					t.Errorf("304 carried a %d-byte body", len(body))
				}
				if got := resp.Header.Get("ETag"); got != etag {
					t.Errorf("304 ETag = %q, want %q", got, etag)
				}
			}
		})
	}
	if n := renders.Load(); n != rendersAfterFirst {
		t.Errorf("revalidations triggered %d extra renders; 304s must not render", n-rendersAfterFirst)
	}

	// New data: the old validator goes stale and the body is fresh.
	advanceEpoch(t, agg, 0)
	resp2, body2 := doReq(t, ts, http.MethodGet, "/report", map[string]string{"If-None-Match": etag})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-advance conditional GET: status %d, want 200", resp2.StatusCode)
	}
	if resp2.Header.Get("ETag") == etag {
		t.Error("ETag did not change across an epoch advance")
	}
	if bytes.Equal(body2, body) {
		t.Error("post-advance body identical to the pre-advance report")
	}
	// And the new validator revalidates.
	if resp, _ := doReq(t, ts, http.MethodGet, "/report", map[string]string{"If-None-Match": resp2.Header.Get("ETag")}); resp.StatusCode != http.StatusNotModified {
		t.Errorf("fresh validator: status %d, want 304", resp.StatusCode)
	}
}

// TestRequestTimeout pins the deadline contract: a render slower than the
// per-request timeout costs the client a bounded 503, not a hung
// connection — and the render still completes and lands in the cache, so
// the retry is a hit.
func TestRequestTimeout(t *testing.T) {
	var slowOnce sync.Once
	ts, _ := emptyServerCfg(t, func(cfg *serve.Config) {
		cfg.RequestTimeout = 100 * time.Millisecond
		cfg.RenderHook = func(string) {
			slowOnce.Do(func() { time.Sleep(400 * time.Millisecond) })
		}
	})

	start := time.Now()
	resp, _ := doReq(t, ts, http.MethodGet, "/report", nil)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow render: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if elapsed > 350*time.Millisecond {
		t.Errorf("503 took %v; the deadline is 100ms, the client must not wait out the render", elapsed)
	}

	// The orphaned render finishes and is cached: the retry succeeds. Wait
	// for it rather than for the hook's sleep, because a study's first
	// report also runs the human protocol behind Figure 9.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if _, m := doReq(t, ts, http.MethodGet, "/metrics", nil); bytes.Contains(m, []byte("\nserve_inflight_renders 0\n")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the timed-out render never finished")
		}
	}
	resp2, _ := doReq(t, ts, http.MethodGet, "/report", nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after render completed: status %d, want 200", resp2.StatusCode)
	}
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("retry X-Cache = %q, want hit (the timed-out render must not be wasted)", resp2.Header.Get("X-Cache"))
	}
}

// TestGzipRoundTrip proves the compressed representation is the plain one
// byte for byte, negotiated per request, with correct Vary/Content-
// Encoding and a shared ETag across representations.
func TestGzipRoundTrip(t *testing.T) {
	_, spillGlob := runBatch(t)
	ts := coldServerCfg(t, spillGlob, func(cfg *serve.Config) { cfg.Gzip = true })

	plainResp, plain := doReq(t, ts, http.MethodGet, "/report", map[string]string{"Accept-Encoding": "identity"})
	if plainResp.StatusCode != http.StatusOK {
		t.Fatalf("identity /report: status %d", plainResp.StatusCode)
	}
	if plainResp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity request answered with Content-Encoding %q", plainResp.Header.Get("Content-Encoding"))
	}
	if plainResp.Header.Get("Vary") != "Accept-Encoding" {
		t.Errorf("Vary = %q, want Accept-Encoding (response is negotiated)", plainResp.Header.Get("Vary"))
	}

	// Setting Accept-Encoding by hand disables the transport's automatic
	// decompression: the bytes below are the wire representation.
	gzResp, gz := doReq(t, ts, http.MethodGet, "/report", map[string]string{"Accept-Encoding": "gzip"})
	if gzResp.StatusCode != http.StatusOK {
		t.Fatalf("gzip /report: status %d", gzResp.StatusCode)
	}
	if gzResp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", gzResp.Header.Get("Content-Encoding"))
	}
	if len(gz) >= len(plain) {
		t.Errorf("gzip body (%d bytes) not smaller than plain (%d bytes)", len(gz), len(plain))
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, plain) {
		t.Error("gzip /report does not decompress to the plain /report bytes")
	}
	if gzResp.Header.Get("ETag") != plainResp.Header.Get("ETag") {
		t.Errorf("representations disagree on ETag: %q vs %q (the weak epoch tag must be shared)",
			gzResp.Header.Get("ETag"), plainResp.Header.Get("ETag"))
	}

	// q=0 explicitly refuses gzip.
	refuseResp, _ := doReq(t, ts, http.MethodGet, "/report", map[string]string{"Accept-Encoding": "gzip;q=0"})
	if refuseResp.Header.Get("Content-Encoding") != "" {
		t.Errorf("gzip;q=0 answered with Content-Encoding %q", refuseResp.Header.Get("Content-Encoding"))
	}
}

// TestMetricsEndpoint drives traffic through every outcome class and
// checks the exposition reflects it: request counters by endpoint/code,
// render counts, cache counters, the epoch gauge, and rate-limit drops.
func TestMetricsEndpoint(t *testing.T) {
	clock := newFakeClock()
	ts, _ := emptyServerCfg(t, func(cfg *serve.Config) {
		cfg.Rate = 1000
		cfg.Burst = 3
		cfg.Now = clock.now
	})

	doReq(t, ts, http.MethodGet, "/api/headlines", nil) // miss
	doReq(t, ts, http.MethodGet, "/api/headlines", nil) // hit
	doReq(t, ts, http.MethodGet, "/api/headlines", nil) // hit; bucket now dry
	doReq(t, ts, http.MethodGet, "/api/headlines", nil) // 429
	doReq(t, ts, http.MethodPost, "/report", nil)       // 405

	resp, body := doReq(t, ts, http.MethodGet, "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		`serve_requests_total{endpoint="headlines",code="200"} 3`,
		`serve_requests_total{endpoint="headlines",code="429"} 1`,
		`serve_requests_total{endpoint="report",code="405"} 1`,
		`serve_renders_total{endpoint="headlines"} 1`,
		`serve_rate_limited_total 1`,
		`serve_cache_hits_total 2`,
		"serve_epoch 1",
		"serve_inflight_renders 0",
		`serve_request_duration_seconds_count{endpoint="headlines"} 4`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q\n--- exposition\n%s", want, body)
		}
	}
}

// TestHardenedMatchesBatch is the acceptance gate for the whole stack:
// with every control switched on at once — limiter, gzip, deadline,
// render cap — the served /report is still byte-identical to the batch
// report, in both representations.
func TestHardenedMatchesBatch(t *testing.T) {
	want, spillGlob := runBatch(t)
	ts := coldServerCfg(t, spillGlob, func(cfg *serve.Config) {
		cfg.RequestTimeout = 10 * time.Second
		cfg.Rate = 10000
		cfg.Burst = 10000
		cfg.Gzip = true
		cfg.MaxRenders = 2
	})

	resp, got := doReq(t, ts, http.MethodGet, "/report", map[string]string{"Accept-Encoding": "identity"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/report status %d", resp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("hardened /report diverges from the batch report\n--- batch\n%s\n--- served\n%s", want, got)
	}

	_, gz := doReq(t, ts, http.MethodGet, "/report", map[string]string{"Accept-Encoding": "gzip"})
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, want) {
		t.Error("hardened gzip /report does not decompress to the batch report")
	}
}
