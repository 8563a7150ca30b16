package dist_test

import (
	"bytes"
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/measure"
	"repro/internal/stats"
)

// testStudyConfig is the shared small-but-real survey every loopback test
// measures: small enough to crawl quickly, large enough for several leases.
func testStudyConfig() core.Config {
	return core.Config{
		Sites:  18,
		Seed:   7,
		Rounds: 2,
		Cases:  []measure.Case{measure.CaseDefault, measure.CaseBlocking},
	}
}

// singleMachineReport runs the study on one machine and renders the
// aggregate report: the byte-level ground truth a distributed run must
// reproduce.
func singleMachineReport(t *testing.T) []byte {
	t.Helper()
	cfg := testStudyConfig()
	cfg.Shards = 2
	cfg.ShardWorkers = 2
	study, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	results, err := study.RunSurvey()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := study.WriteReport(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// coordinator starts a loopback coordinator for the test study.
func coordinator(t *testing.T, study *core.Study, leaseSites int, timeout time.Duration) *dist.Coordinator {
	t.Helper()
	spec, err := study.Spec()
	if err != nil {
		t.Fatal(err)
	}
	c, err := dist.Listen("127.0.0.1:0", dist.CoordinatorConfig{
		Spec:             spec,
		NumSites:         len(study.Web.Sites),
		NumFeatures:      len(study.Registry.Features),
		Standards:        stats.StandardsOf(study.Registry),
		Cases:            study.Cfg.Cases,
		LeaseSites:       leaseSites,
		HeartbeatTimeout: timeout,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// worker runs one worker against addr until the coordinator shuts it down
// or ctx cancels, reporting its exit error on errs.
func worker(ctx context.Context, addr string, errs chan<- error, wrap func(dist.CrawlFunc) dist.CrawlFunc) {
	errs <- dist.Run(ctx, dist.WorkerConfig{
		Addr:              addr,
		HeartbeatInterval: 50 * time.Millisecond,
		Build: func(spec []byte) (dist.CrawlFunc, error) {
			s, err := core.StudyFromSpec(spec, core.Config{Shards: 1, ShardWorkers: 2})
			if err != nil {
				return nil, err
			}
			crawl := dist.CrawlFunc(s.CrawlSites)
			if wrap != nil {
				crawl = wrap(crawl)
			}
			return crawl, nil
		},
	})
}

// distributedReport runs the study across workerCount loopback workers and
// renders the coordinator's merged aggregate report.
func distributedReport(t *testing.T, workerCount, leaseSites int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	study, err := core.NewStudy(testStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	c := coordinator(t, study, leaseSites, 5*time.Second)
	errs := make(chan error, workerCount)
	for i := 0; i < workerCount; i++ {
		go worker(ctx, c.Addr(), errs, nil)
	}
	agg, err := c.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workerCount; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	}

	var buf bytes.Buffer
	if err := study.WriteReport(&buf, study.AggregateResults(agg)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoopbackMatchesSingleMachine is the tentpole equivalence proof: a
// coordinator-merged report is byte-identical to a single-machine
// run at several worker counts.
func TestLoopbackMatchesSingleMachine(t *testing.T) {
	want := singleMachineReport(t)
	for _, tc := range []struct {
		name       string
		workers    int
		leaseSites int
	}{
		{"1worker", 1, 5},
		{"2workers", 2, 5},
		{"3workers_tinyLeases", 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := distributedReport(t, tc.workers, tc.leaseSites)
			if !bytes.Equal(got, want) {
				t.Errorf("distributed report diverges from single-machine run\n--- single-machine\n%s\n--- distributed\n%s", want, got)
			}
		})
	}
}

// TestWorkerKilledMidRun kills one of two workers mid-crawl and asserts the
// coordinator re-issues its lease and still produces the byte-identical
// report: the failure path loses no results and duplicates none.
func TestWorkerKilledMidRun(t *testing.T) {
	want := singleMachineReport(t)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	study, err := core.NewStudy(testStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	// Short heartbeat timeout so the victim's death is noticed quickly.
	c := coordinator(t, study, 3, time.Second)

	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	var victimLeases atomic.Int32
	errs := make(chan error, 2)
	// The victim: its second lease cancels its own context mid-crawl, so
	// it dies after streaming part of that lease's spill data.
	go worker(victimCtx, c.Addr(), errs, func(crawl dist.CrawlFunc) dist.CrawlFunc {
		return func(ctx context.Context, sites []int, spill io.Writer) error {
			if victimLeases.Add(1) == 2 {
				if err := crawl(ctx, sites[:1], spill); err != nil {
					return err
				}
				kill()
				<-ctx.Done()
				return ctx.Err()
			}
			return crawl(ctx, sites, spill)
		}
	})
	// The survivor finishes the survey, including the re-issued lease.
	go worker(ctx, c.Addr(), errs, nil)

	agg, err := c.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := victimLeases.Load(); got < 2 {
		t.Fatalf("victim worker saw %d leases; the kill never triggered", got)
	}

	var buf bytes.Buffer
	if err := study.WriteReport(&buf, study.AggregateResults(agg)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report after worker kill diverges from single-machine run\n--- single-machine\n%s\n--- distributed\n%s", want, buf.Bytes())
	}

	// One error is the victim's cancellation; the survivor exits clean.
	sawCancel, sawClean := false, false
	for i := 0; i < 2; i++ {
		switch err := <-errs; err {
		case nil:
			sawClean = true
		case context.Canceled:
			sawCancel = true
		default:
			t.Fatalf("unexpected worker exit: %v", err)
		}
	}
	if !sawCancel || !sawClean {
		t.Errorf("expected one canceled and one clean worker exit (cancel=%v clean=%v)", sawCancel, sawClean)
	}
}

// TestSingleLeaseWholeSurvey pins the degenerate geometry: one lease
// covering the whole site list, one worker, clean Shutdown at the end.
func TestSingleLeaseWholeSurvey(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	study, err := core.NewStudy(testStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	c := coordinator(t, study, 100, 5*time.Second) // one lease: first worker takes it all
	errs := make(chan error, 2)
	var once sync.Once
	finished := make(chan struct{})
	go worker(ctx, c.Addr(), errs, func(crawl dist.CrawlFunc) dist.CrawlFunc {
		return func(ctx context.Context, sites []int, spill io.Writer) error {
			defer once.Do(func() { close(finished) })
			return crawl(ctx, sites, spill)
		}
	})
	agg, err := c.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if agg == nil {
		t.Fatal("nil aggregate from Serve")
	}
	<-finished
	if err := <-errs; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestAbortWithIdleWorkersReturns pins the shutdown path: cancelling Serve
// while workers outnumber leases (one worker crawls, the other idles in the
// coordinator's grant loop) must return promptly instead of deadlocking on
// the idle handler.
func TestAbortWithIdleWorkersReturns(t *testing.T) {
	study, err := core.NewStudy(testStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	// One lease for the whole site list: the second worker has nothing to
	// do and parks in the handler's grant select.
	c := coordinator(t, study, 100, 5*time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	crawlStarted := make(chan struct{})
	var startedOnce sync.Once
	errs := make(chan error, 2)
	block := func(crawl dist.CrawlFunc) dist.CrawlFunc {
		return func(ctx context.Context, sites []int, spill io.Writer) error {
			startedOnce.Do(func() { close(crawlStarted) })
			<-ctx.Done() // crawl "forever" — only cancellation ends it
			return ctx.Err()
		}
	}
	go worker(ctx, c.Addr(), errs, block)
	go worker(ctx, c.Addr(), errs, block)

	serveDone := make(chan error, 1)
	go func() {
		_, err := c.Serve(ctx)
		serveDone <- err
	}()
	<-crawlStarted
	cancel()
	select {
	case err := <-serveDone:
		if err != context.Canceled {
			t.Fatalf("Serve returned %v; want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after cancellation: idle-handler shutdown deadlock")
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Error("worker exited clean from an aborted survey; want an error")
		}
	}
}
