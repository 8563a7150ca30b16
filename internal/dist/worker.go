package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"
)

// CrawlFunc runs the worker's local survey engine over a lease: it crawls
// exactly the given site indices and streams the resulting spill records —
// one complete, self-describing spill stream — into spill.
// core.Study.CrawlSites is the production implementation (an
// internal/pipeline run over the lease's sites).
type CrawlFunc func(ctx context.Context, sites []int, spill io.Writer) error

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// Build constructs the lease crawler from the coordinator's study
	// spec, received in the Welcome frame. It runs once per spec;
	// building the study (corpus + synthetic web generation) is the
	// worker's startup cost, and reconnections to a coordinator serving
	// the same spec reuse the built study instead of paying it again.
	Build func(spec []byte) (CrawlFunc, error)
	// HeartbeatInterval is how often the worker proves liveness. The
	// zero value derives it from the coordinator's announced heartbeat
	// timeout (a third of it), which is the right choice everywhere
	// outside tests: the pair can then never disagree, whatever
	// -heartbeat the coordinator was started with.
	HeartbeatInterval time.Duration
	// SpillDir, when non-empty, keeps a local copy of every lease's
	// spill stream (lease-NNN.spill) alongside the bytes streamed to the
	// coordinator — an on-disk backup of exactly what this worker
	// shipped, readable by report -spills like any other spill file. The
	// file appears under its final name only when the lease committed;
	// an abandoned lease leaves a .partial file.
	SpillDir string
	// MaxReconnectAttempts, when positive, makes the worker survive a
	// dead connection or unreachable coordinator: it redials with
	// exponential backoff plus jitter, giving up only after this many
	// consecutive attempts without reaching a coordinator. Progress (a
	// completed handshake) resets the budget. 0 preserves the historical
	// behavior — any connection failure ends Run.
	MaxReconnectAttempts int
	// ReconnectBaseDelay is the first backoff delay; it doubles per
	// consecutive failure, capped at 100× (≈ a couple of minutes at the
	// default). Default 500ms.
	ReconnectBaseDelay time.Duration
	// ReconnectSeed seeds the backoff jitter so tests replay identical
	// schedules; 0 derives a seed from the clock, which is what
	// production wants (fleet-wide identical jitter would stampede the
	// coordinator).
	ReconnectSeed int64
	// Dial, when non-nil, replaces net.Dial — the seam fault-injection
	// tests use to refuse or wrap connections. Production leaves it nil.
	Dial func(addr string) (net.Conn, error)
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// permanentError marks failures reconnecting cannot cure (protocol
// version mismatch, a Build that cannot construct the study): the
// session loop stops retrying and surfaces them immediately.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// errShutdown threads the coordinator's clean Shutdown frame out of a
// session.
var errShutdown = errors.New("dist: shutdown")

// Run connects to the coordinator and works leases until the coordinator
// sends Shutdown (survey complete — Run returns nil) or the context is
// canceled. With MaxReconnectAttempts set, a broken connection or failed
// dial is retried with exponential backoff + jitter — a restarted
// coordinator picks up from its checkpoint and its workers simply
// reconnect; without it, the first connection failure ends Run. A worker
// is stateless between leases: killing one mid-crawl loses nothing but
// that lease's work, which the coordinator re-issues.
func Run(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Build == nil {
		return fmt.Errorf("dist: worker requires a Build function")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	base := cfg.ReconnectBaseDelay
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	seed := cfg.ReconnectSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))

	// The built study is cached across reconnections keyed by the exact
	// spec bytes: a restarted coordinator serves the same spec, so the
	// worker skips the expensive rebuild.
	var crawl CrawlFunc
	var crawlSpec []byte

	attempts := 0
	for {
		err := runSession(ctx, cfg, logf, &crawl, &crawlSpec)
		switch {
		case errors.Is(err, errShutdown):
			logf("dist: survey complete, shutting down")
			return nil
		case err == nil:
			// Sessions end with shutdown, cancellation, or an error;
			// nil cannot happen, but treat it as a clean exit.
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var perm permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if cfg.MaxReconnectAttempts <= 0 {
			return err
		}
		if errors.As(err, new(welcomedError)) {
			attempts = 0 // the coordinator was reachable: fresh budget
			err = errors.Unwrap(err)
		}
		attempts++
		if attempts > cfg.MaxReconnectAttempts {
			return fmt.Errorf("dist: giving up after %d reconnect attempts: %w", attempts-1, err)
		}
		delay := base << (attempts - 1)
		if max := 100 * base; delay > max || delay <= 0 {
			delay = 100 * base
		}
		// Full jitter: a uniform draw over (0, delay] keeps a fleet of
		// workers orphaned by the same coordinator crash from redialing
		// in lockstep.
		delay = time.Duration(1 + rng.Int63n(int64(delay)))
		logf("dist: connection lost (%v); reconnecting in %v (attempt %d/%d)",
			err, delay, attempts, cfg.MaxReconnectAttempts)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// welcomedError wraps a session failure that happened after a completed
// handshake: the coordinator was alive, so the reconnect budget resets.
type welcomedError struct{ err error }

func (e welcomedError) Error() string { return e.err.Error() }
func (e welcomedError) Unwrap() error { return e.err }

// runSession runs one connection's lifecycle: dial, handshake, build
// (or reuse) the study, then the lease loop. It returns errShutdown on
// the coordinator's clean Shutdown frame, a permanentError for failures
// retrying cannot cure, and a welcomedError wrapper for failures after
// a successful handshake.
func runSession(ctx context.Context, cfg WorkerConfig, logf func(string, ...any), crawl *CrawlFunc, crawlSpec *[]byte) error {
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	raw, err := dial(cfg.Addr)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	defer raw.Close()
	// Cancellation unblocks every pending read and write by closing the
	// connection out from under them.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			raw.Close()
		case <-watchDone:
		}
	}()
	cn := newConn(raw)

	if err := cn.writeFrame(frameHello, encodeHello()); err != nil {
		return fmt.Errorf("dist: hello: %w", err)
	}
	f, err := cn.readFrame()
	if err != nil {
		return ctxOr(ctx, fmt.Errorf("dist: awaiting welcome: %w", err))
	}
	if f.Type != frameWelcome {
		return permanentError{fmt.Errorf("dist: expected welcome, got frame type %#x", f.Type)}
	}
	spec, hbTimeout, err := decodeWelcome(f.Payload)
	if err != nil {
		return permanentError{err}
	}
	interval := cfg.HeartbeatInterval
	if interval <= 0 {
		interval = hbTimeout / 3
		if interval <= 0 {
			interval = 3 * time.Second
		}
	}

	// Heartbeats run for the whole session, starting now: building the
	// study below can take longer than the coordinator's timeout at
	// survey scale (corpus + synthetic web generation), and the
	// coordinator has already granted this worker its first lease.
	stopHB := make(chan struct{})
	defer close(stopHB)
	go heartbeat(cn, interval, stopHB)

	if *crawl == nil || !bytes.Equal(*crawlSpec, spec) {
		built, err := cfg.Build(spec)
		if err != nil {
			return permanentError{fmt.Errorf("dist: building study from spec: %w", err)}
		}
		*crawl = built
		*crawlSpec = append([]byte(nil), spec...)
		logf("dist: joined %s, study built", cfg.Addr)
	} else {
		logf("dist: rejoined %s, study reused", cfg.Addr)
	}

	for {
		f, err := cn.readFrame()
		if err != nil {
			return ctxOr(ctx, welcomedError{fmt.Errorf("dist: awaiting lease: %w", err)})
		}
		switch f.Type {
		case frameShutdown:
			return errShutdown
		case frameLease:
			id, sites, err := decodeLease(f.Payload)
			if err != nil {
				return welcomedError{err}
			}
			logf("dist: crawling lease %d (%d sites)", id, len(sites))
			if err := runLease(ctx, cn, *crawl, id, sites, cfg.SpillDir); err != nil {
				return ctxOr(ctx, welcomedError{err})
			}
		default:
			return welcomedError{fmt.Errorf("dist: unexpected frame type %#x while idle", f.Type)}
		}
	}
}

// heartbeat proves liveness every interval until stop closes. A failed
// send is retried twice at interval/4 spacing before the goroutine
// gives up — a transient send hiccup (a coordinator stalled for one
// interval, a full socket buffer) shouldn't cost the session when the
// next attempt would have landed well inside the coordinator's timeout
// (workers send at a third of it).
func heartbeat(cn *conn, interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			sent := cn.writeFrame(frameHeartbeat, nil) == nil
			for retry := 0; !sent && retry < 2; retry++ {
				select {
				case <-time.After(interval / 4):
					sent = cn.writeFrame(frameHeartbeat, nil) == nil
				case <-stop:
					return
				}
			}
			if !sent {
				return // the main loop will see the broken conn
			}
		case <-stop:
			return
		}
	}
}

// runLease crawls one lease and commits it. The commit frame is sent only
// after the crawl finished and every spill chunk went out, so the
// coordinator's view of a lease is all-or-nothing. With a SpillDir, the
// stream is teed into lease-NNN.spill as it is sent; the file keeps a
// .partial suffix until the lease commits, so an on-disk lease copy under
// its final name is always a complete stream.
func runLease(ctx context.Context, cn *conn, crawl CrawlFunc, id int, sites []int, spillDir string) error {
	var spill io.Writer = spillChunkWriter{cn}
	var tee *os.File
	final := ""
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return fmt.Errorf("dist: lease %d spill dir: %w", id, err)
		}
		final = filepath.Join(spillDir, fmt.Sprintf("lease-%03d.spill", id))
		f, err := os.Create(final + ".partial")
		if err != nil {
			return fmt.Errorf("dist: lease %d spill file: %w", id, err)
		}
		tee = f
		defer tee.Close()
		spill = io.MultiWriter(spill, f)
	}
	if err := crawl(ctx, sites, spill); err != nil {
		return fmt.Errorf("dist: lease %d crawl: %w", id, err)
	}
	if err := cn.writeFrame(frameLeaseDone, encodeLeaseDone(id)); err != nil {
		return fmt.Errorf("dist: committing lease %d: %w", id, err)
	}
	if tee != nil {
		if err := tee.Sync(); err != nil {
			return fmt.Errorf("dist: lease %d spill file: %w", id, err)
		}
		if err := tee.Close(); err != nil {
			return fmt.Errorf("dist: lease %d spill file: %w", id, err)
		}
		if err := os.Rename(final+".partial", final); err != nil {
			return fmt.Errorf("dist: lease %d spill file: %w", id, err)
		}
		if err := fsyncDir(spillDir); err != nil {
			return fmt.Errorf("dist: lease %d spill dir: %w", id, err)
		}
	}
	return nil
}

// ctxOr prefers the context's error when the context ended: a connection
// closed by the cancellation watcher should read as "canceled", not as an
// I/O failure.
func ctxOr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}
