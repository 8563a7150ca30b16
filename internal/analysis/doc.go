// Package analysis derives the paper's results (§5, §6 of "Browser Feature
// Usage on the Modern Web", IMC 2016) from survey measurements: popularity
// distributions (§5.1), block rates under the blocking profiles (§5.4,
// Figure 4), site complexity (Figure 8), age/popularity relations (§5.2,
// Figure 6), CVE association (Table 2), and the internal/external
// validation statistics (§6).
//
// Every statistic is read from one stats.Source, whichever constructor
// built the Analysis. FromStats(src, reg) takes a mergeable stats.Aggregate
// that the pipeline maintained while the survey ran (or that
// stats.FromSpills folded from spill files), or an epoch snapshot of one.
// New(log, reg) folds a measure.Log into an aggregate with stats.FromLog
// and analyzes that the same way. The per-site queries behind Figure 5
// (VisitWeightedPopularity) and Figure 9 (HumanDelta) read the source's
// per-site default-case standard sets, so every source renders the whole
// paper. Both folds are checked against a reference scan of the log kept in
// a test file (TestWarmAnalysisMatchesCold), and an Analysis is safe for
// concurrent use when its Source is.
//
// Analysis consumes only measured data — never the synthetic web's
// calibration profile — so the same code analyzes logs from the
// internal/pipeline engine, a CSV written by an earlier run, or the merged
// spill stream of a spill-only survey.
// TopFeatures and FeatureDeltas render the headline tables the
// cmd/pipeline binary prints: per-feature popularity and the per-feature
// usage drops caused by content blocking.
package analysis
