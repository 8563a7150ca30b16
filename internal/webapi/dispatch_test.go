package webapi

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestInternRefAllocatesLinearly interns 4,096 distinct references and
// bounds the bytes allocated per reference. Copying the whole published
// slice on every intern would average 40 B × 2,048 ≈ 80 KB per reference
// at this size; the key, the map entry and the two precomputed errors
// take a few hundred bytes.
func TestInternRefAllocatesLinearly(t *testing.T) {
	const n = 4096
	table := bindings(t).NewDispatchTable()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		table.InternRef(fmt.Sprintf("Iface%d", i), "member")
	}
	runtime.ReadMemStats(&after)
	if got := len(table.Refs()); got != n {
		t.Fatalf("%d refs published, want %d", got, n)
	}
	perRef := (after.TotalAlloc - before.TotalAlloc) / n
	if perRef > 1024 {
		t.Errorf("interning %d refs allocated %d B per ref, want at most 1024", n, perRef)
	}
}

// TestRefsSnapshotStableWhileInterning takes a Refs slice and reads it,
// and appends to it, while another goroutine interns more references. The
// slice must keep its length and entries, and the reader's append must not
// reach the table; run under -race, any write to a published entry is
// reported.
func TestRefsSnapshotStableWhileInterning(t *testing.T) {
	b := bindings(t)
	table := b.NewDispatchTable()
	for _, ref := range [][2]string{{"Document", "createElement"}, {"Window", "nope"}, {"Node", "appendChild"}} {
		table.InternRef(ref[0], ref[1])
	}
	snap := table.Refs()
	want := append([]Dispatch(nil), snap...)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			table.InternRef(fmt.Sprintf("Iface%d", i), "member")
		}
	}()
	for i := 0; i < 200; i++ {
		if len(snap) != len(want) {
			t.Fatalf("snapshot length %d, want %d", len(snap), len(want))
		}
		for j := range want {
			if snap[j] != want[j] {
				t.Fatalf("snapshot entry %d changed while interning", j)
			}
		}
		_ = append(snap, Dispatch{CallErr: errStale})
	}
	wg.Wait()

	refs := table.Refs()
	if len(refs) != len(want)+2000 {
		t.Fatalf("%d refs published, want %d", len(refs), len(want)+2000)
	}
	for j := range want {
		if refs[j] != want[j] {
			t.Errorf("entry %d changed after interning", j)
		}
	}
	if refs[len(want)].CallErr == errStale {
		t.Error("an append to a published slice wrote into the table")
	}
}

var errStale = fmt.Errorf("stale")
