// Package dist runs the survey across machines: a coordinator/worker
// protocol over TCP that partitions the site list into leases, farms the
// leases out to workers running local internal/pipeline runs, and merges
// their streamed results into one statistics aggregate — identical,
// statistic for statistic and therefore report byte for report byte, to a
// single-machine run of the same study.
//
// # Why this is nearly free
//
// The layers below were built for exactly this moment. A remote worker is an
// internal/pipeline run over its lease's sites (it folds visits into a
// mergeable stats.Aggregate and never holds a log); the internal/logstore
// spill stream is already a complete, self-describing, corruption-detecting
// serialization of a run's output; stats.FromSpillStream replays a stream
// into an aggregate and stats.Aggregate.Merge folds aggregates together. dist adds only the transport (length-prefixed frames carrying
// spill chunks) and the lease lifecycle (who crawls what, and what happens
// when they die).
//
// # Protocol
//
// All messages are logstore frames: one type byte, a uvarint payload
// length, the payload. A session:
//
//	worker                                coordinator
//	  │ ── Hello{version} ──────────────────► │
//	  │ ◄── Welcome{version,hbTimeout,spec} ── │  spec: core study JSON
//	  │     (worker builds the identical      │  heartbeats start NOW, at
//	  │      corpus + synthetic web locally)  │  a third of hbTimeout, so
//	  │                                       │  a slow study build never
//	  │                                       │  reads as a dead worker
//	  │ ◄───────────────── Lease{id, sites[]} │
//	  │ ── SpillData{chunk} ─────────────────► │  buffered per lease
//	  │ ── Heartbeat ────────────────────────► │  every interval, mid-crawl
//	  │ ── SpillData{chunk} ─────────────────► │
//	  │ ── LeaseDone{id} ────────────────────► │  lease commits atomically:
//	  │                                       │  FromSpillStream → Merge
//	  │ ◄───────────────── Lease{id', sites[]} │  …until no leases remain
//	  │ ◄──────────────────────────── Shutdown │
//
// # Correctness under failure
//
// A lease merges atomically or not at all. The coordinator buffers a
// lease's spill chunks and folds them only on LeaseDone; any failure first
// — heartbeat silence past the timeout, a broken connection, a corrupt
// stream — discards the buffer whole and re-issues the lease to another
// worker. Because every visit's randomness is a pure function of
// (seed, site, case, round), the re-crawl reproduces the lost visits
// exactly, so a survey that survives worker deaths is byte-identical to one
// that didn't have any (TestWorkerKilledMidRun proves it end to end).
// Duplicate commits of one lease — a slow-but-alive worker finishing after
// its lease was re-issued — are dropped, because Aggregate.Merge is a pure
// tally addition that would double-count overlapping sites
// (stats.TestMergeOverlappingSites pins that shape). A lease that fails
// MaxLeaseAttempts times fails the survey instead of requeueing forever.
//
// # Backpressure and liveness
//
// The coordinator reads a granted lease's connection continuously, so TCP
// flow control is the spill backpressure. Workers heartbeat during long
// crawls; the coordinator arms a read deadline of HeartbeatTimeout per
// frame, making "silent for the timeout" the single definition of a dead
// worker. The send interval is negotiated, not configured twice: the
// Welcome frame announces the coordinator's timeout and workers beat at a
// third of it, for the whole session — including while building the study,
// which at survey scale can take longer than the timeout itself.
//
// cmd/pipeline surfaces the protocol as -coordinator and -worker;
// docs/OPERATIONS.md is the operator's runbook.
package dist
