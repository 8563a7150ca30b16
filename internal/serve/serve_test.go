package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/measure"
	"repro/internal/serve"
	"repro/internal/stats"
)

// testStudyConfig matches the dist loopback suite: small enough to crawl in
// seconds, large enough for several leases.
func testStudyConfig() core.Config {
	return core.Config{
		Sites:  18,
		Seed:   7,
		Rounds: 2,
		Cases:  []measure.Case{measure.CaseDefault, measure.CaseBlocking},
	}
}

func newStudy(t *testing.T, cfg core.Config) *core.Study {
	t.Helper()
	study, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { study.Close() })
	return study
}

// runBatch runs the study spill-only, keeps the spill files, and renders
// the batch aggregate report — the ground truth byte-for-byte, plus the
// cold-start input for a server.
func runBatch(t *testing.T) (report []byte, spillGlob string) {
	t.Helper()
	dir := t.TempDir()
	cfg := testStudyConfig()
	cfg.Shards = 2
	cfg.ShardWorkers = 2
	cfg.SpillOnly = true
	cfg.SpillDir = dir
	study := newStudy(t, cfg)
	results, err := study.RunSurvey()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := study.WriteReport(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), filepath.Join(dir, "*")
}

// coldServer loads the spill files and serves them over a test listener.
func coldServer(t *testing.T, spillGlob string) *httptest.Server {
	return coldServerCfg(t, spillGlob, nil)
}

// coldServerCfg is coldServer with a config hook, so the hardening suite
// can switch on limiter/gzip/timeout knobs over the same spill data.
func coldServerCfg(t *testing.T, spillGlob string, mut func(*serve.Config)) *httptest.Server {
	t.Helper()
	study := newStudy(t, testStudyConfig())
	agg, err := serve.LoadSpills(study, spillGlob)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Study: study, Agg: agg, Logf: t.Logf}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// emptyServerCfg serves an empty published aggregate with a config hook —
// the cheap substrate for hardening tests that control the epoch by hand.
func emptyServerCfg(t *testing.T, mut func(*serve.Config)) (*httptest.Server, *stats.Aggregate) {
	t.Helper()
	study := newStudy(t, testStudyConfig())
	agg, err := serve.EmptyAggregate(study)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Study: study, Agg: agg, Logf: t.Logf}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, agg
}

// liveServer starts an empty server in coordinator mode, runs workerCount
// loopback workers to completion, and returns the test listener — the
// mid-survey ingestion path, quiesced so /report is deterministic.
func liveServer(t *testing.T, workerCount, leaseSites int) *httptest.Server {
	t.Helper()
	ts, done := liveServerAsync(t, workerCount, leaseSites)
	<-done
	return ts
}

// liveServerAsync is liveServer without the barrier: done closes when every
// lease has merged and all workers exited.
func liveServerAsync(t *testing.T, workerCount, leaseSites int) (*httptest.Server, <-chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)

	study := newStudy(t, testStudyConfig())
	agg, err := serve.EmptyAggregate(study)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Study: study, Agg: agg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := srv.Coordinator("127.0.0.1:0", leaseSites, 5*time.Second, "")
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, workerCount)
	for i := 0; i < workerCount; i++ {
		go func() {
			errs <- dist.Run(ctx, dist.WorkerConfig{
				Addr:              coord.Addr(),
				HeartbeatInterval: 50 * time.Millisecond,
				Build: func(spec []byte) (dist.CrawlFunc, error) {
					s, err := core.StudyFromSpec(spec, core.Config{Shards: 1, ShardWorkers: 2})
					if err != nil {
						return nil, err
					}
					return s.CrawlSites, nil
				},
			})
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := coord.Serve(ctx); err != nil {
			t.Errorf("coordinator: %v", err)
			return
		}
		for i := 0; i < workerCount; i++ {
			if err := <-errs; err != nil {
				t.Errorf("worker exit: %v", err)
			}
		}
	}()

	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, done
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestServeReportMatchesBatch is the tentpole equivalence proof: the
// resident server's /report is byte-identical to the batch report over the
// same measurements — whether the server cold-loaded spill files or was
// fed live by distributed workers, at more than one worker geometry.
func TestServeReportMatchesBatch(t *testing.T) {
	want, spillGlob := runBatch(t)

	t.Run("cold-spills", func(t *testing.T) {
		ts := coldServer(t, spillGlob)
		code, got, hdr := get(t, ts, "/report")
		if code != http.StatusOK {
			t.Fatalf("/report status %d", code)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("served report diverges from the batch report\n--- batch\n%s\n--- served\n%s", want, got)
		}
		if hdr.Get("X-Cache") != "miss" {
			t.Errorf("first /report X-Cache = %q, want miss", hdr.Get("X-Cache"))
		}
		_, again, hdr2 := get(t, ts, "/report")
		if hdr2.Get("X-Cache") != "hit" {
			t.Errorf("second /report X-Cache = %q, want hit", hdr2.Get("X-Cache"))
		}
		if !bytes.Equal(again, got) {
			t.Error("cached /report differs from the first render")
		}
	})

	for _, tc := range []struct {
		name       string
		workers    int
		leaseSites int
	}{
		{"live-1worker", 1, 5},
		{"live-2workers-tinyLeases", 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := liveServer(t, tc.workers, tc.leaseSites)
			code, got, _ := get(t, ts, "/report")
			if code != http.StatusOK {
				t.Fatalf("/report status %d", code)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("live-fed report diverges from the batch report\n--- batch\n%s\n--- served\n%s", want, got)
			}
		})
	}
}

// TestQueryEndpoints drives every API endpoint on a warm server: each
// answers 200 with well-formed JSON, equivalent spellings share a cache
// entry, and malformed parameters are 400s, not surprises.
func TestQueryEndpoints(t *testing.T) {
	_, spillGlob := runBatch(t)
	ts := coldServer(t, spillGlob)

	endpoints := []string{
		"/api/top-features",
		"/api/feature-deltas",
		"/api/standards",
		"/api/headlines",
		"/api/complexity",
		"/api/rounds",
	}
	for _, ep := range endpoints {
		t.Run(ep, func(t *testing.T) {
			code, body, hdr := get(t, ts, ep)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			var v map[string]any
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatalf("response is not JSON: %v", err)
			}
			if _, ok := v["epoch"]; !ok {
				t.Error("response has no epoch field")
			}
			if hdr.Get("X-Epoch") == "" {
				t.Error("no X-Epoch header")
			}
		})
	}

	t.Run("normalization-shares-cache", func(t *testing.T) {
		_, first, _ := get(t, ts, "/api/top-features?case=default&n=15")
		code, second, hdr := get(t, ts, "/api/top-features?n=15&case=+Default+")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if hdr.Get("X-Cache") != "hit" {
			t.Errorf("equivalent query X-Cache = %q, want hit", hdr.Get("X-Cache"))
		}
		if !bytes.Equal(first, second) {
			t.Error("equivalent queries returned different bodies")
		}
	})

	t.Run("bad-params", func(t *testing.T) {
		for _, path := range []string{
			"/api/top-features?case=nope",
			"/api/top-features?n=0",
			"/api/top-features?n=-3",
			"/api/top-features?n=banana",
			"/api/feature-deltas?profile=nope",
			"/api/standards?case=nope",
		} {
			if code, _, _ := get(t, ts, path); code != http.StatusBadRequest {
				t.Errorf("%s status %d, want 400", path, code)
			}
		}
		// An empty case= falls back to the default, and n above the cap
		// clamps: both are valid queries, not errors.
		for _, path := range []string{"/api/top-features?case=", "/api/top-features?n=99999"} {
			if code, _, _ := get(t, ts, path); code != http.StatusOK {
				t.Errorf("%s rejected; want 200", path)
			}
		}
	})

	t.Run("method-not-allowed", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/api/headlines", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST status %d, want 405", resp.StatusCode)
		}
	})

	t.Run("statusz", func(t *testing.T) {
		code, body, _ := get(t, ts, "/statusz")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		var st struct {
			Epoch uint64 `json:"epoch"`
			Cache struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"cache"`
			MeasuredSites int `json:"measured_sites"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Epoch == 0 {
			t.Error("statusz epoch 0 on a warm server")
		}
		if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
			t.Errorf("statusz cache counters (%d hits, %d misses) never moved", st.Cache.Hits, st.Cache.Misses)
		}
		if st.MeasuredSites == 0 {
			t.Error("statusz reports zero measured sites on a warm server")
		}
	})

	t.Run("healthz", func(t *testing.T) {
		if code, body, _ := get(t, ts, "/healthz"); code != http.StatusOK || string(body) != "ok\n" {
			t.Errorf("/healthz = %d %q", code, body)
		}
	})
}

// TestCacheInvalidatesOnEpochAdvance feeds new data into a served
// aggregate and requires the next query to re-render under the new epoch
// instead of serving the stale cached body.
func TestCacheInvalidatesOnEpochAdvance(t *testing.T) {
	study := newStudy(t, testStudyConfig())
	agg, err := serve.EmptyAggregate(study)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Study: study, Agg: agg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first, hdr := get(t, ts, "/api/headlines")
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	epoch1 := hdr.Get("X-Epoch")
	if _, _, hdr := get(t, ts, "/api/headlines"); hdr.Get("X-Cache") != "hit" {
		t.Fatalf("repeat query X-Cache = %q, want hit", hdr.Get("X-Cache"))
	}

	// New data arrives: one measured site, then a publication.
	sf := measure.NewBitset(agg.NumFeatures())
	sf.Set(0)
	if err := agg.AddVisit(stats.Visit{Case: measure.CaseDefault, Site: 0, Features: sf, Invocations: 1, Pages: 1}); err != nil {
		t.Fatal(err)
	}
	if err := agg.EndSite(0); err != nil {
		t.Fatal(err)
	}
	agg.Publish()

	_, second, hdr := get(t, ts, "/api/headlines")
	if hdr.Get("X-Cache") != "miss" {
		t.Errorf("post-publish query X-Cache = %q, want miss (stale cache served)", hdr.Get("X-Cache"))
	}
	if hdr.Get("X-Epoch") == epoch1 {
		t.Error("epoch did not advance after Publish")
	}
	if bytes.Equal(first, second) {
		t.Error("post-publish headlines identical to the empty-survey body")
	}
}

// TestServeLiveConcurrentReaders is the HTTP half of the race sweep (run
// with -race): readers hammer every endpoint while distributed workers
// stream lease commits into the served aggregate. Every response must be a
// 200, and each reader's observed epoch must never go backwards.
func TestServeLiveConcurrentReaders(t *testing.T) {
	ts, done := liveServerAsync(t, 2, 3)

	paths := []string{
		"/api/top-features",
		"/api/feature-deltas?profile=blocking",
		"/api/standards",
		"/api/headlines",
		"/api/complexity",
		"/api/rounds",
		"/report",
		"/statusz",
	}
	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				path := paths[(i+r)%len(paths)]
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: %s mid-survey status %d", r, path, resp.StatusCode)
					return
				}
				if e := resp.Header.Get("X-Epoch"); e != "" {
					var epoch uint64
					fmt.Sscanf(e, "%d", &epoch)
					if epoch < lastEpoch {
						t.Errorf("reader %d: epoch went backwards (%d after %d)", r, epoch, lastEpoch)
						return
					}
					lastEpoch = epoch
				}
			}
		}(r)
	}
	wg.Wait()
	<-done

	// Quiesced: the survey is complete and the served state is final.
	code, body, _ := get(t, ts, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var st struct {
		Coordinator struct {
			Done bool `json:"done"`
		} `json:"coordinator"`
		MeasuredSites int `json:"measured_sites"`
		OpenSites     int `json:"open_sites"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Coordinator.Done {
		t.Error("statusz coordinator not done after every lease merged")
	}
	if st.OpenSites != 0 {
		t.Errorf("statusz reports %d open sites after the survey", st.OpenSites)
	}
}

// TestLoadersReject pins the cold-start error paths: a zero-match spill
// glob and a missing log file fail loudly.
func TestLoadersReject(t *testing.T) {
	study := newStudy(t, testStudyConfig())
	if _, err := serve.LoadSpills(study, filepath.Join(t.TempDir(), "*.spill")); err == nil {
		t.Error("LoadSpills accepted a glob matching nothing")
	}
	if _, err := serve.LoadLog(study, filepath.Join(t.TempDir(), "missing.log")); err == nil {
		t.Error("LoadLog accepted a missing file")
	}
	if _, err := serve.New(serve.Config{}); err == nil {
		t.Error("New accepted an empty config")
	}
}
