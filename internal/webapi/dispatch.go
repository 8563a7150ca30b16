package webapi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/webidl"
)

// Dispatch is one interned feature reference, fully resolved at intern time:
// either a valid target feature or the exact error the string-keyed slow
// path would produce, precomputed once. Compiled scripts address these by
// dense ID, so executing `invoke Interface.member` costs an index into a
// slice instead of a "Interface.member" string concatenation plus map
// lookup per dispatch.
type Dispatch struct {
	// Feature is the resolved target; nil when the reference is invalid
	// for both invoke and set.
	Feature *webidl.Feature
	// CallErr, when non-nil, is what invoking this reference returns
	// (unknown member, or an attribute invoked as a function).
	CallErr error
	// SetErr, when non-nil, is what writing this reference returns
	// (unknown member, a method written as a property, or a read-only
	// attribute).
	SetErr error
}

// DispatchTable interns "Interface.member" references to dense IDs against
// one Bindings. A browser owns one table and shares it across every script
// it compiles, so hot cross-site scripts intern each reference exactly once
// per browser. Interning is mutex-guarded; Refs is a lock-free atomic
// snapshot for the execution hot path.
type DispatchTable struct {
	b  *Bindings
	mu sync.Mutex
	// ids maps "Interface.member" to the dense ref ID.
	ids map[string]int
	// all backs the published slices. It grows geometrically under mu,
	// and only past the published length, so a published entry is never
	// written again.
	all []Dispatch
	// refs is the published dispatch slice, all[:n:n]: capped, so an
	// append by a reader copies instead of writing into all.
	refs atomic.Pointer[[]Dispatch]
}

// NewDispatchTable creates an empty interning table over the bindings.
func (b *Bindings) NewDispatchTable() *DispatchTable {
	t := &DispatchTable{b: b, ids: make(map[string]int)}
	empty := []Dispatch{}
	t.refs.Store(&empty)
	return t
}

// InternRef implements webscript.RefInterner: it returns the dense ID for a
// feature reference, resolving it through the bindings (inheritance chain
// included) and precomputing the invoke/set outcomes on first intern.
func (t *DispatchTable) InternRef(iface, member string) int {
	key := iface + "." + member
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[key]; ok {
		return id
	}
	d := Dispatch{}
	f, ok := t.b.Resolve(iface, member)
	if ok {
		d.Feature = f
	}
	if !ok || f.Kind != webidl.Method {
		d.CallErr = &ReferenceError{Interface: iface, Member: member}
	}
	switch {
	case !ok || f.Kind != webidl.Attribute:
		d.SetErr = &ReferenceError{Interface: iface, Member: member}
	case f.ReadOnly:
		// Byte-for-byte the slow path's error: SetProperty formats the
		// same message per write, this one is built once per table.
		d.SetErr = fmt.Errorf("webapi: cannot assign to read only property %s", f.Name())
	}

	id := len(t.all)
	t.all = append(t.all, d)
	published := t.all[: id+1 : id+1]
	t.ids[key] = id
	t.refs.Store(&published)
	return id
}

// Refs returns the current dispatch slice: one atomic load, safe to index by
// any ID interned before the call and valid forever (later interns write
// only past its end, or into a new backing array).
func (t *DispatchTable) Refs() []Dispatch {
	return *t.refs.Load()
}

// CallDispatch is the compiled-script fast path of Call: the reference was
// resolved and validated at intern time, so dispatch is an error check, a
// slot load, and the invocation — no string concatenation, no map lookup,
// no CallContext allocation.
func (rt *Runtime) CallDispatch(d *Dispatch, count int) error {
	if d.CallErr != nil {
		return d.CallErr
	}
	rt.dispatch(d.Feature, count)
	return nil
}

// SetDispatch is the compiled-script fast path of SetProperty.
func (rt *Runtime) SetDispatch(d *Dispatch) error {
	if d.SetErr != nil {
		return d.SetErr
	}
	f := d.Feature
	rt.native[f.ID]++
	for _, w := range rt.watchers[f.ID] {
		w(f, 1)
	}
	return nil
}
