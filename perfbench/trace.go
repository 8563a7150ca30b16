package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call the benchmark made into a layer.
// Spans of one operation (a visit, a lease commit, a reload) share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation ID.
func (tr *tracer) newOp() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ops++
	return tr.ops
}

// begin opens a span and returns its ID (0 when tracing is off).
func (tr *tracer) begin(name string, parent, op int) int {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(tr.spans)
}

// end closes a span opened by begin.
func (tr *tracer) end(id int) {
	if tr == nil || id == 0 {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

// recordLatency adds a span of a duration timed apart from the tracer (a
// handler call timed by its client, say) that ended just now.
func (tr *tracer) recordLatency(name string, parent, op int, d time.Duration) {
	if tr == nil {
		return
	}
	end := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Op: op, Name: name, Start: end - d.Nanoseconds(), End: end})
}

// durations returns every closed span's duration by name.
func (tr *tracer) durations(name string) []time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total sums the durations of every span with the name.
func (tr *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range tr.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes returns, by span name, the summed self time: each span's
// duration minus the part of its interval its child spans cover.
func (tr *tracer) selfTimes() map[string]time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range tr.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return time.Duration(sum)
}

// coverage is the share of a root span's interval its children cover: how
// much of the traced wall time the spans account for.
func (tr *tracer) coverage(root int) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	r := tr.spans[root-1]
	var kids []span
	for _, s := range tr.spans {
		if s.Parent == root && s.End >= 0 {
			kids = append(kids, s)
		}
	}
	if r.End <= r.Start {
		return 0
	}
	return float64(covered(r, kids)) / float64(r.End-r.Start)
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
