// Package stats is the mergeable statistics layer of the survey: a
// lock-striped, concurrently fed Aggregate that maintains — incrementally,
// as visits complete — everything internal/analysis reports: per-case
// feature-site counts, standard-site counts, blocked-vs-unblocked pair
// tallies, site-complexity tallies, new-standards-per-round sums, and each
// site's default-case standard set (a bitset of a few words per site), which
// Figure 5's visit weighting and Figure 9's human delta read.
//
// The Aggregate keeps no per-visit grid: beyond the fixed per-site standard
// sets, a site's state lives only in a small open-site accumulator between
// its first visit and EndSite, and open sites are bounded by worker count,
// not survey size. A survey's full log, when one is wanted, is reassembled
// from its spill files (logstore.ReadSpillFiles); nothing here reads it.
//
// Aggregates merge: Merge folds another aggregate's tallies into this one,
// which is how the internal/dist coordinator combines the per-lease
// aggregates remote workers stream home. FromSpills (and FromSpillStream,
// the coordinator's entry point) replays spill streams through the same
// AddVisit/EndSite path, so a crashed or remote shard's spill data is
// exactly as good as its live aggregate. Merge adds the tallies and unions
// the per-site standard sets: merging two aggregates that both contain a
// site counts the site twice, so distributed callers must merge each
// site's results exactly once (dist commits each lease atomically, at most
// once).
//
// Feeding protocol: every completed visit is one AddVisit (or one Visit in
// an Apply batch); a failed visit is an AddFailure; and once a site's last
// visit is in, EndSite folds the site's unions into the derived tallies and
// its default-case standard set, and discards its accumulator. Calls for
// the same site must be ordered (the pipeline guarantees this by assigning
// each site to one worker); calls for different sites may race freely —
// they synchronize on stripe locks. The aggregate only borrows a Visit's
// Features for the call that takes it: it reads the bitset, never writes
// it, and keeps nothing of it once the call returns. Each case's first set
// is cloned into the site's union, and a default-case visit leaves behind
// only its round's standard set. So a caller may pass bitsets it still owns
// (FromLog passes the log's own cells), and may reuse one bitset for every
// visit: Replay, and with it FromSpills and FromSpillStream, feeds each
// record straight from the spill stream's scratch bitset.
//
// Standards are tallied over a dense table: New numbers the distinct
// standards of Config.Standards in sorted-name order, the per-standard
// tallies are slices indexed by that number, and the fold builds each
// case's standard set as a bitset over it in scratch the aggregate owns —
// block pairs count the bits of default &^ case, complexity is the default
// set's popcount, and a round's new standards are the popcount of
// round &^ seen — so folding a site allocates nothing. The query methods
// expand a tally into a map by standard only when asked; SiteStandards
// returns a site's set over the table StandardNames lists. Merge refuses
// two aggregates whose standard tables differ, since their indices would
// name different standards. FromLog folds a saved measure.Log through the
// same path; it is how internal/analysis answers every query over a log.
package stats
