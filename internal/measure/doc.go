// Package measure holds the survey's in-memory measurement model: which
// features executed on which sites, per browser configuration and crawl
// round. It is the analog of the log the paper's measuring extension emits
// ("blocking,example.com,Crypto.getRandomValues(),1" — Figure 2 of "Browser
// Feature Usage on the Modern Web", IMC 2016) plus the aggregation
// structures the analysis needs.
//
// Case names the four browser configurations of the survey (§4.1): the
// unmodified default, the combined AdBlock Plus + Ghostery "blocking"
// profile, and the two single-blocker profiles behind Figure 7. Log stores
// one feature Bitset per (case, round, site) cell; the survey engine in
// internal/pipeline produces it, and Record lets a hand-written loop over
// crawler.Visitor (the test oracle) build the same structure.
//
// This package is purely the in-memory model. Persistence — the CSV and
// binary on-disk formats, streaming spill files, and the visit-level result
// cache — lives in internal/logstore, behind its pluggable Codec API.
package measure
