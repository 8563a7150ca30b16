package logstore

import (
	"bufio"
	"bytes"
	"container/list"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/measure"
)

// cacheMagic identifies one cached visit outcome on disk.
const cacheMagic = "\xF1VCH1"

// manifestName is the recency manifest's filename inside a capped cache
// directory. Entry files are hex-named *.visit files, so the name can never
// collide with an entry.
const manifestName = "manifest"

// VisitOutcome is everything one visit contributes to the survey log: the
// feature set, invocation and page totals — or the fact that the visit
// failed and made the site unmeasurable. Failures are cached too, because
// they are as deterministic as successes.
type VisitOutcome struct {
	Failed      bool
	Features    measure.Bitset
	Invocations int64
	Pages       int
}

// CacheStats counts cache traffic. Errors counts unreadable or mismatched
// entries, which degrade to misses rather than failing a run; Evictions
// counts entries pruned to honor the size cap.
type CacheStats struct {
	Hits, Misses, Puts, Errors, Evictions int64
}

// Cache memoizes visit outcomes on disk, keyed by the visit's deterministic
// seed and its browser configuration (the blocking profile of the visit).
// Because crawler.VisitSeed derives a visit's randomness purely from
// (base seed, site, case, round), a re-run with an overlapping config can
// skip every visit the cache already holds and still produce the identical
// log.
//
// VisitSeed does not encode the study itself — a different site count or
// generation seed builds a different synthetic web whose visits must never
// be replayed across runs — so every entry also records the corpus size and
// the caller's scope string (the study parameters that shape visit
// outcomes). Entries from another scope degrade to misses.
//
// A capped cache (OpenCacheLimited with maxBytes > 0) prunes
// least-recently-used entries once their total size exceeds the cap. An
// append-only manifest in the cache directory journals puts, touches, and
// deletions, so recency survives restarts and neither lookups nor eviction
// ever scan the directory — the only scan is a one-time seeding when a cap
// is first applied to a directory without a manifest. The manifest is an
// accelerator like the cache itself: if it is lost or stale, entries are
// re-registered as they are hit.
//
// A Cache is safe for concurrent use; entries are written to a temp file
// and renamed into place so a crashed run never leaves a torn entry.
type Cache struct {
	dir         string
	numFeatures int
	scope       string

	hits, misses, puts, errors, evictions atomic.Int64

	// Eviction state, active only when maxBytes > 0.
	mu           sync.Mutex
	maxBytes     int64
	totalBytes   int64
	entries      map[string]*list.Element // entry filename → lru element
	lru          *list.List               // front = most recently used
	manifest     *os.File
	journalLines int
}

// cacheEntry is one tracked entry file.
type cacheEntry struct {
	name string
	size int64
}

// OpenCache opens (creating if needed) an unbounded visit cache rooted at
// dir for a study with the given corpus size. scope fingerprints everything
// beyond (VisitSeed, case) that determines a visit's outcome — the site
// count, generation seed, and crawl methodology; cache entries only ever
// serve a cache opened with the identical scope.
func OpenCache(dir string, numFeatures int, scope string) (*Cache, error) {
	return OpenCacheLimited(dir, numFeatures, scope, 0)
}

// OpenCacheLimited is OpenCache with a size cap: once the entries exceed
// maxBytes in total, the least-recently-used are deleted. maxBytes <= 0
// means unbounded (no manifest is maintained).
func OpenCacheLimited(dir string, numFeatures int, scope string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logstore: opening cache: %w", err)
	}
	if numFeatures <= 0 || numFeatures > maxFeatures {
		return nil, fmt.Errorf("logstore: cache corpus size %d out of range", numFeatures)
	}
	c := &Cache{dir: dir, numFeatures: numFeatures, scope: scope}
	if maxBytes > 0 {
		c.maxBytes = maxBytes
		c.entries = make(map[string]*list.Element)
		c.lru = list.New()
		if err := c.loadManifest(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a (visit seed, case, scope) key to its entry file. Case and
// scope are user-influenced strings, so they are hashed rather than
// embedded in the filename; the entry body stores both verbatim for
// collision safety.
func (c *Cache) path(seed int64, cs measure.Case) string {
	return filepath.Join(c.dir, c.entryName(seed, cs))
}

func (c *Cache) entryName(seed int64, cs measure.Case) string {
	h := fnv.New64a()
	h.Write([]byte(cs))
	h.Write([]byte{0})
	h.Write([]byte(c.scope))
	return fmt.Sprintf("%016x-%016x.visit", uint64(seed), h.Sum64())
}

// Get looks up the outcome of the visit keyed by (seed, cs). A missing,
// corrupt, or mismatched entry is a miss.
func (c *Cache) Get(seed int64, cs measure.Case) (VisitOutcome, bool) {
	name := c.entryName(seed, cs)
	data, err := os.ReadFile(filepath.Join(c.dir, name))
	if err != nil {
		c.misses.Add(1)
		c.forget(name)
		return VisitOutcome{}, false
	}
	out, err := c.decode(data, cs)
	if err != nil {
		c.errors.Add(1)
		c.misses.Add(1)
		return VisitOutcome{}, false
	}
	c.hits.Add(1)
	c.touch(name, int64(len(data)))
	return out, true
}

// Put stores the outcome of the visit keyed by (seed, cs). Write failures
// are counted and reported but a caller may treat them as non-fatal: the
// cache is an accelerator, not a correctness dependency.
func (c *Cache) Put(seed int64, cs measure.Case, out VisitOutcome) error {
	var buf bytes.Buffer
	w := newBinWriter(&buf)
	w.bytes([]byte(cacheMagic))
	w.uvarint(uint64(c.numFeatures))
	w.str(c.scope)
	w.str(string(cs))
	if out.Failed {
		w.byte(1)
	} else {
		w.byte(0)
		w.uvarint(uint64(out.Invocations))
		w.uvarint(uint64(out.Pages))
		w.bitset(out.Features, c.numFeatures)
	}
	if err := w.flush(); err != nil {
		c.errors.Add(1)
		return err
	}

	name := c.entryName(seed, cs)
	tmp, err := os.CreateTemp(c.dir, ".visit-*")
	if err != nil {
		c.errors.Add(1)
		return fmt.Errorf("logstore: writing cache entry: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.errors.Add(1)
		return fmt.Errorf("logstore: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.errors.Add(1)
		return fmt.Errorf("logstore: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, name)); err != nil {
		os.Remove(tmp.Name())
		c.errors.Add(1)
		return fmt.Errorf("logstore: writing cache entry: %w", err)
	}
	c.puts.Add(1)
	c.record(name, int64(len(buf.Bytes())))
	return nil
}

// decode parses one entry, validating it against the cache's corpus and
// the case it was looked up under.
func (c *Cache) decode(data []byte, cs measure.Case) (VisitOutcome, error) {
	r := newBytesReader(data)
	if err := r.expectMagic(cacheMagic, "cache entry"); err != nil {
		return VisitOutcome{}, err
	}
	nf, err := r.count(maxFeatures, "feature count")
	if err != nil {
		return VisitOutcome{}, err
	}
	if nf != c.numFeatures {
		return VisitOutcome{}, fmt.Errorf("logstore: cache entry for a %d-feature corpus, want %d", nf, c.numFeatures)
	}
	storedScope, err := r.str(4096, "scope")
	if err != nil {
		return VisitOutcome{}, err
	}
	if storedScope != c.scope {
		return VisitOutcome{}, fmt.Errorf("logstore: cache entry for scope %q, want %q", storedScope, c.scope)
	}
	storedCase, err := r.str(256, "case name")
	if err != nil {
		return VisitOutcome{}, err
	}
	if storedCase != string(cs) {
		return VisitOutcome{}, fmt.Errorf("logstore: cache entry for case %q, want %q", storedCase, cs)
	}
	flag, err := r.readByte()
	if err != nil {
		return VisitOutcome{}, err
	}
	if flag == 1 {
		return VisitOutcome{Failed: true}, nil
	}
	var out VisitOutcome
	if out.Invocations, err = r.int64Val("invocations"); err != nil {
		return VisitOutcome{}, err
	}
	pages, err := r.count(1<<30, "pages")
	if err != nil {
		return VisitOutcome{}, err
	}
	out.Pages = pages
	if out.Features, err = r.bitset(c.numFeatures); err != nil {
		return VisitOutcome{}, err
	}
	return out, nil
}

// Stats returns a snapshot of the cache's traffic counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Errors:    c.errors.Load(),
		Evictions: c.evictions.Load(),
	}
}

// --- eviction state ---------------------------------------------------

// loadManifest rebuilds the recency list. When the directory has a
// manifest, it is replayed (later lines are more recent) — no directory
// scan. When a cap is applied to a directory without one (first capped
// open, or a deleted manifest), the entries are seeded from a one-time
// directory listing ordered by modification time. Either way the state is
// compacted back to one put-line per entry.
func (c *Cache) loadManifest() error {
	path := filepath.Join(c.dir, manifestName)
	f, err := os.Open(path)
	switch {
	case err == nil:
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			op, rest, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				continue
			}
			switch op {
			case "p": // p <size> <name>
				sizeStr, name, ok := strings.Cut(rest, " ")
				if !ok {
					continue
				}
				size, err := strconv.ParseInt(sizeStr, 10, 64)
				if err != nil || size < 0 || !validEntryName(name) {
					continue
				}
				c.registerLocked(name, size)
			case "t": // t <name>
				if el, ok := c.entries[rest]; ok {
					c.lru.MoveToFront(el)
				}
			case "d": // d <name>
				c.dropLocked(rest)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			// A corrupt or truncated manifest (a crash mid-append, a
			// flipped bit growing a line past any sane length) costs
			// recency, not correctness: drop whatever replayed and
			// rebuild from the directory itself, like a first capped
			// open. compactLocked below then rewrites a clean manifest.
			c.entries = make(map[string]*list.Element)
			c.lru.Init()
			c.totalBytes = 0
			if err := c.seedFromDirectory(); err != nil {
				return err
			}
		}
	case os.IsNotExist(err):
		if err := c.seedFromDirectory(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("logstore: opening cache manifest: %w", err)
	}
	return c.compactLocked()
}

// validEntryName reports whether a manifest-supplied name is a real
// cache entry filename. Eviction removes tracked names from the cache
// directory, so a corrupted manifest line must never smuggle in a path
// that escapes it or aliases the manifest.
func validEntryName(name string) bool {
	return strings.HasSuffix(name, ".visit") && !strings.ContainsAny(name, "/\\")
}

// seedFromDirectory lists existing entries once, oldest first, so a cap
// applied to a pre-existing uncapped cache starts with sensible recency.
func (c *Cache) seedFromDirectory() error {
	names, err := filepath.Glob(filepath.Join(c.dir, "*.visit"))
	if err != nil {
		return fmt.Errorf("logstore: seeding cache manifest: %w", err)
	}
	type aged struct {
		entry cacheEntry
		mtime int64
	}
	var found []aged
	for _, p := range names {
		info, err := os.Stat(p)
		if err != nil {
			continue
		}
		found = append(found, aged{cacheEntry{filepath.Base(p), info.Size()}, info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, e := range found {
		c.registerLocked(e.entry.name, e.entry.size)
	}
	return nil
}

// compactLocked rewrites the manifest as one put-line per entry, oldest
// first, and reopens it for appending.
func (c *Cache) compactLocked() error {
	if c.manifest != nil {
		c.manifest.Close()
		c.manifest = nil
	}
	path := filepath.Join(c.dir, manifestName)
	tmp, err := os.CreateTemp(c.dir, ".manifest-*")
	if err != nil {
		return fmt.Errorf("logstore: compacting cache manifest: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(cacheEntry)
		fmt.Fprintf(w, "p %d %s\n", e.size, e.name)
	}
	if err := w.Flush(); err == nil {
		err = tmp.Close()
		if err == nil {
			err = os.Rename(tmp.Name(), path)
		}
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("logstore: compacting cache manifest: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("logstore: reopening cache manifest: %w", err)
	}
	c.manifest = f
	c.journalLines = 0
	return nil
}

// registerLocked inserts or refreshes an entry at the recency front.
func (c *Cache) registerLocked(name string, size int64) {
	if el, ok := c.entries[name]; ok {
		c.totalBytes += size - el.Value.(cacheEntry).size
		el.Value = cacheEntry{name, size}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[name] = c.lru.PushFront(cacheEntry{name, size})
	c.totalBytes += size
}

// dropLocked removes an entry from the recency state (not from disk).
func (c *Cache) dropLocked(name string) {
	if el, ok := c.entries[name]; ok {
		c.totalBytes -= el.Value.(cacheEntry).size
		c.lru.Remove(el)
		delete(c.entries, name)
	}
}

// journalLocked appends one manifest line, compacting when the journal has
// grown well past the live entry count. Manifest I/O failures are counted
// and swallowed: recency degrades, correctness does not.
func (c *Cache) journalLocked(line string) {
	if c.manifest == nil {
		return
	}
	if _, err := c.manifest.WriteString(line); err != nil {
		c.errors.Add(1)
		return
	}
	c.journalLines++
	if c.journalLines > 4*len(c.entries)+64 {
		if err := c.compactLocked(); err != nil {
			c.errors.Add(1)
		}
	}
}

// touch marks an entry recently used (registering untracked entries, which
// self-heals a lost manifest) and prunes if a stale registration pushed the
// total over the cap.
func (c *Cache) touch(name string, size int64) {
	if c.maxBytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[name]; ok {
		c.lru.MoveToFront(el)
		c.journalLocked("t " + name + "\n")
		return
	}
	// Untracked entry. The Get read the file outside the lock, so a
	// concurrent eviction may have deleted it since; evictions run under
	// this lock, so a stat here settles it — registering a ghost would
	// inflate totalBytes and evict a live entry in its place.
	if _, err := os.Stat(filepath.Join(c.dir, name)); err != nil {
		return
	}
	c.registerLocked(name, size)
	c.journalLocked(fmt.Sprintf("p %d %s\n", size, name))
	c.evictLocked()
}

// forget removes a vanished entry from the recency state.
func (c *Cache) forget(name string) {
	if c.maxBytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		c.dropLocked(name)
		c.journalLocked("d " + name + "\n")
	}
}

// record tracks a fresh Put and prunes least-recently-used entries until
// the cache fits its cap again.
func (c *Cache) record(name string, size int64) {
	if c.maxBytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerLocked(name, size)
	c.journalLocked(fmt.Sprintf("p %d %s\n", size, name))
	c.evictLocked()
}

// evictLocked deletes from the recency back until under the cap.
func (c *Cache) evictLocked() {
	for c.totalBytes > c.maxBytes && c.lru.Len() > 0 {
		el := c.lru.Back()
		e := el.Value.(cacheEntry)
		if err := os.Remove(filepath.Join(c.dir, e.name)); err != nil && !os.IsNotExist(err) {
			c.errors.Add(1)
		}
		c.dropLocked(e.name)
		c.journalLocked("d " + e.name + "\n")
		c.evictions.Add(1)
	}
}
