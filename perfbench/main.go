// Command perfbench is the repository's benchmark. It runs one named
// workload in-process through the program's public packages, checks the
// program's outputs against the synthetic web's ground truth and its own
// tallies, and prints every metric by name and unit. The last line of its
// standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload crawl --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh aa --runs 10
//
// With --trace 0 the metrics are the end-to-end ones, the same three on
// every workload; with --trace 1 a traced run prints the per-layer ones of
// every layer. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation's state: its settings, the metrics it
// has measured with the sample count behind each, the operations it
// attempted, and the checks that failed.
type run struct {
	workload string
	// flow is the workload being driven: the named one, or in a traced run
	// one of the others, traced for their layers alone.
	flow     string
	seed     int64
	budget   time.Duration
	traced   bool
	dir      string // scratch directory for the program's files
	spansDir string

	metrics map[string]metric
	samples map[string]int
	// phases are the medians of the timed phases a pass is made of, for the
	// self-report.
	phases    map[string]float64
	attempted int64
	failed    int64
	// problems keeps the first maxProblems failed checks of checkFailures.
	problems      []string
	checkFailures int
	// steal is, per timed pass, the share of the CPU time this machine
	// asked for that its hypervisor gave elsewhere: on a shared host the
	// passes' times rise with it.
	steal []float64
	// passesRun and passesCounted are the timed passes run and those whose
	// samples count.
	passesRun, passesCounted int
}

const maxProblems = 20

// set records a metric and the number of samples behind it.
func (r *run) set(name, unit string, value float64, samples int) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.samples[name] = samples
}

// primary reports whether the flow being driven is the named workload.
func (r *run) primary() bool { return r.flow == r.workload }

// op counts one attempted operation of the program, failed when err is
// not nil, and reports whether it succeeded.
func (r *run) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
		return false
	}
	return true
}

// check records a failed output check.
func (r *run) check(err error) {
	if err == nil {
		return
	}
	r.checkFailures++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, err.Error())
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

// A timed pass counts only if the hypervisor gave other tenants at most
// maxSteal of the CPU time this machine asked for during it: on a shared
// host a pass's time rises steeply with that share, which is the host's
// noise, not the program's. A run keeps passing until its budget is spent
// and it has run minPasses passes; short of minPasses quiet passes then, the
// minPasses least-stolen passes count. A flow traced for its layers alone
// has no budget and runs one timed pass.
const maxSteal = 0.02

// unstolen is the part of a pass's duration d in which the hypervisor let
// this machine run, stolen being the share of the CPU time it asked for
// during the pass that went to other tenants instead. A pass that keeps a
// vCPU busy stretches by about that share.
func unstolen(d time.Duration, stolen float64) float64 { return d.Seconds() * (1 - stolen) }

// passes runs one untimed warm-up pass, then whole timed passes, each
// after a forced GC so one pass's garbage is not collected on the next
// one's clock. A timed pass returns a function that records its samples,
// given the pass's stolen share, or nil when its operation failed; passes
// calls it for the passes that count.
func (r *run) passes(minPasses int, pass func(i int, timed bool) (keep func(stolen float64), err error)) error {
	if !r.primary() {
		minPasses = 1
	}
	runtime.GC()
	if _, err := pass(-1, false); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	type timedPass struct {
		keep   func(stolen float64)
		stolen float64
	}
	var quiet, all []timedPass
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < r.budget; i++ {
		runtime.GC()
		before := readCPU()
		keep, err := pass(i, true)
		if err != nil {
			return err
		}
		stolen := readCPU().stolenSince(before)
		if r.primary() {
			r.steal = append(r.steal, stolen)
		}
		if keep == nil {
			continue
		}
		all = append(all, timedPass{keep, stolen})
		if stolen <= maxSteal {
			quiet = append(quiet, timedPass{keep, stolen})
		}
	}
	counted := quiet
	if len(quiet) < minPasses {
		sort.SliceStable(all, func(i, j int) bool { return all[i].stolen < all[j].stolen })
		counted = all[:min(minPasses, len(all))]
	}
	if r.primary() {
		r.passesCounted, r.passesRun = len(counted), len(r.steal)
	}
	for _, p := range counted {
		p.keep(p.stolen)
	}
	return nil
}

// cpuTimes are the machine's CPU counters from /proc/stat, in clock ticks:
// time spent running anything, and time the hypervisor ran something else
// while this machine's CPUs wanted to run.
type cpuTimes struct{ busy, steal uint64 }

func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user, nice, system, idle, iowait, irq, softirq, steal
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolenSince is the share of the CPU time this machine asked for since
// before that the hypervisor gave to something else.
func (c cpuTimes) stolenSince(before cpuTimes) float64 {
	busy, steal := c.busy-before.busy, c.steal-before.steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// memPhase accumulates the Go runtime's allocation and GC counters over
// timed phases.
type memPhase struct {
	before     runtime.MemStats
	allocBytes uint64
	mallocs    uint64
	gcs        uint32
	pauseNs    uint64
}

func (m *memPhase) start() { runtime.ReadMemStats(&m.before) }

func (m *memPhase) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocBytes += after.TotalAlloc - m.before.TotalAlloc
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.gcs += after.NumGC - m.before.NumGC
	m.pauseNs += after.PauseTotalNs - m.before.PauseTotalNs
}

// memSeries keeps one memPhase total per timed pass.
type memSeries struct{ alloc, mallocs, gcs, pause []float64 }

func (s *memSeries) add(m *memPhase) {
	s.alloc = append(s.alloc, float64(m.allocBytes)/(1<<20))
	s.mallocs = append(s.mallocs, float64(m.mallocs))
	s.gcs = append(s.gcs, float64(m.gcs))
	s.pause = append(s.pause, float64(m.pauseNs)/1e6)
}

// report sets the per-layer runtime metrics: per-pass medians.
func (s *memSeries) report(r *run) {
	r.set("runtime.alloc_mb", "MB", median(s.alloc), len(s.alloc))
	r.set("runtime.mallocs", "count", median(s.mallocs), len(s.mallocs))
	r.set("runtime.gc_cycles", "count", median(s.gcs), len(s.gcs))
	r.set("runtime.gc_pause_ms", "ms", median(s.pause), len(s.pause))
}

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks of a sorted
// copy of the sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms, us and secs convert durations for metrics.
func ms(ds []time.Duration) []float64 { return scale(ds, 1e6) }
func us(ds []time.Duration) []float64 { return scale(ds, 1e3) }

func secs(ds []time.Duration) []float64 { return scale(ds, 1e9) }

func scale(ds []time.Duration, unit float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / unit
	}
	return out
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fingerprint describes the host a run measured on.
func fingerprint() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"goarch":     runtime.GOARCH,
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"crawl":  runCrawl,
	"replay": runReplay,
	"live":   runLive,
}

// flowOrder is the order in which a traced run drives the workloads it was
// not named for.
var flowOrder = []string{"crawl", "replay", "live"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "aa" {
		os.Exit(aaMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload to run: crawl, replay or live")
	seed := flag.Int64("seed", 1, "seed of the workload's generated inputs")
	seconds := flag.Int("seconds", 0, "how long the timed passes run (required; BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload crawl|replay|live --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	if err := benchmark(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmark runs one workload and prints its self-report and result. An
// untraced run drives the named workload alone. A traced run drives it for
// its budget, then the other two for one traced pass each, so that it
// prints every layer's metrics whichever workload it was named for; the
// run-wide ones (set-up layers, runtime, tracing overhead) are the named
// workload's.
func benchmark(workload string, seed int64, budget time.Duration, traced bool) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: workload,
		seed:     seed,
		traced:   traced,
		dir:      dir,
		spansDir: filepath.Join(base, "spans"),
		metrics:  make(map[string]metric),
		samples:  make(map[string]int),
		phases:   make(map[string]float64),
	}
	flows := []string{workload}
	if traced {
		for _, f := range flowOrder {
			if f != workload {
				flows = append(flows, f)
			}
		}
	}
	for _, f := range flows {
		r.flow, r.budget = f, 0
		if f == workload {
			r.budget = budget
		}
		if err := workloads[f](r); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		r.set("peak_rss_mb", "MB", rss, 1)
	}
	if r.attempted == 0 {
		return fmt.Errorf("%s attempted no operation", workload)
	}
	if err := spec.checkMetrics(traced, r.metrics); err != nil {
		return err
	}

	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Printf("%-32s %14.6g %-6s (n=%d)\n", name, m.Value, m.Unit, r.samples[name])
	}
	self, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "seconds": budget.Seconds(), "trace": traced,
		"host": fingerprint(), "samples": r.samples, "phases": r.phases,
		"check_failures": r.checkFailures, "problems": r.problems,
		"steal_share_median": median(r.steal), "steal_share_max": quantile(r.steal, 1),
		"passes_run": r.passesRun, "passes_counted": r.passesCounted,
	})
	if err != nil {
		return err
	}
	fmt.Printf("self-report %s\n", self)
	out, err := json.Marshal(result{Correct: r.checkFailures == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// traceCoverage is the least share of a traced pass's wall time its spans
// must account for.
const traceCoverage = 0.95

// finishTrace checks that the traced pass's spans account for its wall
// time, records how much they cover (the least over the run's flows), and
// writes the span file.
func (r *run) finishTrace(tr *tracer) error {
	cov := tr.coverage(1)
	if cov < traceCoverage {
		r.check(fmt.Errorf("trace: %s spans cover %.1f%% of the traced wall time, want at least %.0f%%", r.flow, 100*cov, 100*traceCoverage))
	}
	if prev, ok := r.metrics["trace.coverage_pct"]; !ok || 100*cov < prev.Value {
		r.set("trace.coverage_pct", "%", 100*cov, 1)
	}
	return r.writeSpans(tr)
}

// writeSpans stores the traced run's spans in the checkout's build
// directory, one file per flow, named workload and seed.
func (r *run) writeSpans(tr *tracer) error {
	if err := os.MkdirAll(r.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.spansDir, fmt.Sprintf("%s-%s-seed%d.jsonl", r.flow, r.workload, r.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
