// Package lint is repolint: a static-analysis suite that turns the
// repository's prose invariants — determinism, snapshot immutability,
// resource lifecycle, decoder hardening — into build-breaking checks.
// The analyzers mirror the golang.org/x/tools/go/analysis shapes
// (Analyzer, Pass, Diagnostic) but are built on the standard library
// alone, because this module vendors nothing; if x/tools ever becomes a
// dependency, each analyzer ports by swapping the Pass type.
//
// # The analyzers
//
//   - detrange flags map ranges whose iteration order can reach output:
//     an append to an outer slice with no later sort, or a direct
//     print/write inside the loop. Commutative folds and drain-then-sort
//     are fine — the point is that bytes leaving a deterministic package
//     must not depend on map order.
//   - nowrand bans time.Now/time.Since and the process-global math/rand
//     functions in deterministic packages. The seeded idiom — a
//     *rand.Rand built with rand.New(rand.NewSource(...)) and drawn from
//     via methods — is untouched.
//   - snapmut flags writes through values reachable from a
//     *stats.Snapshot outside internal/stats. Snapshots are shared
//     immutable epochs; a mutation corrupts every concurrent reader.
//   - releasepair flags functions that obtain a pooled resource
//     (Browser.Load page, sync.Pool Get) with a return path that never
//     releases it. Defer-release, release-before-every-return, and
//     genuine ownership transfer (return/store/send) all pass.
//   - framecap flags make() sized by a wire-read length (ReadUvarint and
//     friends, and logstore's window-reader rawUvarint) with no
//     intervening bound check — two bytes on the wire must not allocate
//     2^60 elements.
//
// # Scope
//
// Analyzers are written unscoped and directly testable; Suite attaches
// the package filters. detrange and nowrand run only on the
// DeterministicPackages (the seed-to-bytes pipeline); snapmut runs
// everywhere except internal/stats itself; releasepair everywhere;
// framecap on the wire packages (logstore, dist). cmd/repolint applies
// Suite to whatever packages it is pointed at; the lint-smoke CI step
// runs the fixture tests under testdata/src, which are the analyzers'
// executable specification.
//
// # Suppressing a finding
//
// A `//lint:allow <name>` comment on the flagged line (or the line
// above) suppresses that analyzer there:
//
//	buf := make([]byte, n) //lint:allow framecap — length is our own encoder's
//
// Use it only when the invariant genuinely does not apply (a trusted
// same-process round-trip, an ownership model the heuristic cannot see)
// and say why in the comment — the directive is a reviewed claim, not an
// off switch. `//lint:allow all` exists for generated code. If the same
// suppression keeps recurring, fix the analyzer's heuristic instead.
//
// # Adding an analyzer
//
//  1. Write the Analyzer in its own file; Run receives a *Pass with the
//     parsed files and full types.Info and calls pass.Reportf. Keep it
//     unscoped — package filtering belongs in Suite.
//  2. Add fixtures under testdata/src/<name>/ with `// want "regexp"`
//     annotations on every line that must fire and none elsewhere, plus
//     an allow.go proving the directive path. Wire a test in lint_test.go
//     via linttest.Run.
//  3. Register it in Analyzers and, with its package filter, in Suite.
//     TestTreeIsClean then enforces it over the whole module, and
//     cmd/repolint picks it up with no further wiring.
package lint
