//go:build !race

// The race detector makes sync.Pool drop a random quarter of its Puts, so a
// pooled page, and with it its DOM slabs, is not reliably recycled there.

package browser

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/dom"
)

// TestWarmLoadAllocatesNothingPerNode holds a warm Load, AdvanceClock and
// Release of a cached URL, with the measurer installed, to fewer bytes than
// a quarter of the page's node slab: the document is cloned into the
// released page's slabs, not into fresh ones.
func TestWarmLoadAllocatesNothingPerNode(t *testing.T) {
	e := env(t)
	b := e.browser(&benchMeasurer{counts: make(map[int]int64)})
	url := "http://" + e.site.Domain + "/"
	cycle := func() {
		p, err := b.Load(url)
		if err != nil {
			t.Fatal(err)
		}
		p.AdvanceClock(30)
		b.Release(p)
	}
	cycle()
	cycle()
	b.cache.mu.Lock()
	tpl, ok := b.cache.templates.get(url)
	b.cache.mu.Unlock()
	if !ok {
		t.Fatal("the page's template is not cached")
	}
	slab := uint64(tpl.tpl.NumNodes()) * uint64(unsafe.Sizeof(dom.Node{}))

	// One P, so the goroutine cannot move off the P whose pool holds the
	// page.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const loads = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < loads; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if perLoad := (after.TotalAlloc - before.TotalAlloc) / loads; perLoad*4 > slab {
		t.Errorf("a warm load allocates %d B; the page's %d nodes take %d B", perLoad, tpl.tpl.NumNodes(), slab)
	}
}

// TestRepeatVisitAllocatesNothing pins BenchmarkLoadRepeatVisit/fastpath's
// zero allocations: a warm Load, AdvanceClock and Release of a cached URL,
// with the measurer installed, resolves no URL and builds no request.
func TestRepeatVisitAllocatesNothing(t *testing.T) {
	e := env(t)
	b := e.browser(&benchMeasurer{counts: make(map[int]int64)})
	url := "http://" + e.site.Domain + "/"
	cycle := func() {
		p, err := b.Load(url)
		if err != nil {
			t.Fatal(err)
		}
		p.AdvanceClock(30)
		b.Release(p)
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("a warm load makes %v allocations", n)
	}
}
