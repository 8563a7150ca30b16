package dist_test

// Crash-and-restart equivalence for the distributed survey: a coordinator
// killed after any number of lease commits, restarted over its checkpoint
// with workers that reconnect on their own, must finish the survey with a
// report byte-identical to an uninterrupted single-machine run.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/stats"
)

// ckptCoordinator starts a loopback coordinator journaling to ckptPath,
// cancelling serveCtx after stopAfter lease merges (0 = never).
func ckptCoordinator(t *testing.T, study *core.Study, leaseSites int, ckptPath string, stopAfter int, stop func()) *dist.Coordinator {
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
		HeartbeatTimeout: 2 * time.Second,
		CheckpointPath:   ckptPath,
		Logf:             t.Logf,
		OnLeaseMerged: func(merged, total int) {
			if stopAfter > 0 && merged == stopAfter {
				stop()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reconnectWorker runs a worker that survives coordinator deaths: every
// dial goes to whatever address addr currently holds, optionally wrapped
// by wrapConn, with tight reconnect backoff so tests stay fast.
func reconnectWorker(ctx context.Context, addr *atomic.Value, errs chan<- error, wrapConn func(net.Conn) net.Conn) {
	errs <- dist.Run(ctx, dist.WorkerConfig{
		Addr:                 "moving-target", // every dial re-reads addr
		HeartbeatInterval:    50 * time.Millisecond,
		MaxReconnectAttempts: 100,
		ReconnectBaseDelay:   5 * time.Millisecond,
		ReconnectSeed:        1,
		Dial: func(string) (net.Conn, error) {
			cn, err := net.Dial("tcp", addr.Load().(string))
			if err != nil {
				return nil, err
			}
			if wrapConn != nil {
				cn = wrapConn(cn)
			}
			return cn, nil
		},
		Build: func(spec []byte) (dist.CrawlFunc, error) {
			s, err := core.StudyFromSpec(spec, core.Config{Shards: 1, ShardWorkers: 2})
			if err != nil {
				return nil, err
			}
			return s.CrawlSites, nil
		},
	})
}

// TestCoordinatorCrashMatrix is the distributed half of the crash matrix:
// for every commit count k, a coordinator killed right after its k-th
// lease merge and restarted over the same checkpoint — its workers left
// running, reconnecting by themselves — produces the byte-identical
// aggregate report. The checkpoint must also have made the first life's
// work durable: the restarted coordinator starts with at least k leases
// already merged.
func TestCoordinatorCrashMatrix(t *testing.T) {
	want := singleMachineReport(t)
	const leaseSites = 3 // 18 sites → 6 leases

	study, err := core.NewStudy(testStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	numLeases := (len(study.Web.Sites) + leaseSites - 1) / leaseSites

	for k := 1; k < numLeases; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)

		ckpt := filepath.Join(t.TempDir(), "survey.ckpt")
		var addr atomic.Value
		serve1Ctx, kill1 := context.WithCancel(ctx)
		c1 := ckptCoordinator(t, study, leaseSites, ckpt, k, kill1)
		addr.Store(c1.Addr())

		errs := make(chan error, 2)
		go reconnectWorker(ctx, &addr, errs, nil)
		go reconnectWorker(ctx, &addr, errs, nil)

		if _, err := c1.Serve(serve1Ctx); err != context.Canceled {
			t.Fatalf("k=%d: first life Serve = %v, want canceled after %d merges", k, err, k)
		}

		// Second life: same checkpoint, fresh port; the workers are still
		// out there redialing.
		c2 := ckptCoordinator(t, study, leaseSites, ckpt, 0, nil)
		if got := c2.Completed(); got < k {
			t.Fatalf("k=%d: restarted coordinator replayed %d committed leases, want >= %d", k, got, k)
		}
		addr.Store(c2.Addr())
		agg, err := c2.Serve(ctx)
		if err != nil {
			t.Fatalf("k=%d: second life Serve: %v", k, err)
		}
		// When every lease already lived in the checkpoint, the second
		// life finishes before the workers reconnect; cancel them out of
		// their redial backoff rather than waiting out their budget.
		cancel()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("k=%d: worker exit: %v", k, err)
			}
		}

		var buf bytes.Buffer
		if err := study.WriteReport(&buf, study.AggregateResults(agg)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("k=%d: crashed-and-restarted report diverges from single-machine run\n--- single-machine\n%s\n--- restarted\n%s",
				k, want, buf.Bytes())
		}
		cancel()
	}
}

// TestWorkerSurvivesFlakyConnection tears the single worker's connection
// mid-survey with a seeded fault injector. The coordinator requeues the
// in-flight lease; the worker reconnects and finishes. The report must be
// byte-identical and the built study reused across the reconnect.
func TestWorkerSurvivesFlakyConnection(t *testing.T) {
	want := singleMachineReport(t)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	study, err := core.NewStudy(testStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()

	ckpt := filepath.Join(t.TempDir(), "survey.ckpt")
	c := ckptCoordinator(t, study, 3, ckpt, 0, nil)
	var addr atomic.Value
	addr.Store(c.Addr())

	// The 6th worker write (hello, then spill chunks and commits) tears:
	// a random prefix goes out, then the connection dies under the worker.
	in := faultinject.New(99)
	in.Arm("send", 6)
	errs := make(chan error, 1)
	go reconnectWorker(ctx, &addr, errs, func(cn net.Conn) net.Conn {
		return in.FlakyConn("", "send", cn)
	})

	agg, err := c.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	if in.Count("send") < 6 {
		t.Fatalf("injector saw %d sends; the tear never fired", in.Count("send"))
	}

	var buf bytes.Buffer
	if err := study.WriteReport(&buf, study.AggregateResults(agg)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report after mid-survey connection tear diverges from single-machine run\n--- single-machine\n%s\n--- distributed\n%s",
			want, buf.Bytes())
	}
}

// TestWorkerGivesUpWhenCoordinatorStaysDead pins the reconnect brake: with
// nothing listening, Run fails after its attempt budget instead of
// retrying forever.
func TestWorkerGivesUpWhenCoordinatorStaysDead(t *testing.T) {
	// Grab a port that refuses connections by closing a listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	err = dist.Run(context.Background(), dist.WorkerConfig{
		Addr:                 deadAddr,
		MaxReconnectAttempts: 3,
		ReconnectBaseDelay:   time.Millisecond,
		ReconnectSeed:        1,
		Build: func([]byte) (dist.CrawlFunc, error) {
			t.Error("Build ran without a coordinator")
			return nil, nil
		},
	})
	if err == nil {
		t.Fatal("Run succeeded against a dead coordinator")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("giving up took %v; backoff cap is broken", elapsed)
	}
}
