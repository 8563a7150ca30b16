// Package pipeline is the sharded, concurrent execution engine for the
// paper's automated survey (§4.3 of "Browser Feature Usage on the Modern
// Web", Snyder, Ansari, Taylor, Kanich — IMC 2016).
//
// The survey is embarrassingly parallel: every (site, browser
// configuration, round) visit is independent, seeded only by
// crawler.VisitSeed. The engine exploits that in two bounded stages:
//
//	sharder ──► shard queues ──► crawl workers ──► stats.Aggregate
//
// The sharder partitions sites round-robin into Shards bounded queues.
// Each shard runs WorkersPerShard browser workers; a worker owns one
// crawler, with one instrumented browser per configuration, and folds
// completed visits into the lock-striped mergeable aggregate of
// internal/stats in batches of BatchSize — one stripe-lock acquisition per
// stripe per batch. The worker's browsers keep their own extensions and
// page and runtime pools but share the crawler's browser.Cache, so each
// page and script the worker meets is fetched, parsed and compiled once
// for every configuration, and memory holds one set of cache LRUs per
// worker rather than one per configuration. Because a site is crawled end to end
// by one worker, the site's visits, failures, and end-of-site fold are
// naturally ordered; different sites synchronize only on stripe locks.
// All queues are bounded, giving natural back-pressure, and a
// context.Context cancels the whole pipeline gracefully.
//
// The engine has two memory modes. The default keeps the full per-visit
// grid, so Result.Log is the complete measure.Log, ready to save. SpillOnly
// drops the grid entirely: each shard folds its visits into a local
// stats.Aggregate (plus a streaming spill file when SpillDir is set), the
// shard aggregates merge after the run, and memory grows by only the
// aggregate's per-site standard sets (a few words a site), not per visit;
// stats.FromSpills rebuilds the identical aggregate from the spill files
// alone. Either way the aggregate answers every analysis query, so both
// modes render the whole paper without rescanning a log.
//
// Determinism is the engine's contract: because visit randomness depends
// only on (seed, site, case, round) and every aggregate cell is written by
// at most one visit — all cross-visit state being commutative bit-set
// unions and integer sums — the final measure.Log is byte-identical at
// every shard/worker geometry, and a spill-only run renders byte-identical
// reports. The oracle is a single-threaded site → case → round loop over
// crawler.Visitor in the repository's root tests (TestOracleMatchesGolden),
// checked against the committed golden CSV digests; this package's tests
// take a 1 shard × 1 worker run as their baseline, and
// TestPipelineMatchesSequential and TestSpillOnlyMatchesInMemory hold every
// other geometry and mode to it.
//
// Two Config fields exist for the distributed protocol (internal/dist):
// Sites restricts a run to a subset of site indices (a worker's lease) while
// keeping the aggregate sized for the full site list, so disjoint subset
// aggregates merge into exactly the full-run aggregate; Spill points every
// shard at one externally owned spill writer — a worker's network stream —
// instead of per-shard files.
package pipeline
