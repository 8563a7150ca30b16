package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the A/A command reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readSpec reads BENCHMARK.json from the repository root.
func readSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// checkMetrics checks that a run measured exactly the manifest's metrics of
// its kind, each in its unit: the end-to-end ones untraced, the per-layer
// ones traced.
func (spec *benchmarkSpec) checkMetrics(traced bool, got map[string]metric) error {
	want := make(map[string]string)
	for _, e := range spec.EndToEnd {
		if !traced {
			want[e.Name] = e.Unit
		}
	}
	for _, l := range spec.PerLayer {
		if traced {
			want[l.Name] = l.Unit
		}
	}
	var problems []string
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			problems = append(problems, name+" not measured")
		} else if m.Unit != unit {
			problems = append(problems, fmt.Sprintf("%s in %s, BENCHMARK.json says %s", name, m.Unit, unit))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			problems = append(problems, name+" is not in BENCHMARK.json")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics do not match BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// aaMain runs two sets of untraced runs of this build, interleaved in time
// and each run with its own seed, and prints per (workload, metric) each
// set's median and quartiles and whether the sets agree within the
// metric's bound: the two medians differ, either way, by no more than the
// bound as a share of set A's, and each set's quartile spread is within the
// bound. setup_s's spread is not held to its bound: set-up is a few
// constructions of 30–200 ms per run on webs that differ by seed, so its
// spread is wide; a set-up regression still shows in the medians. It exits 1
// when any pair disagrees.
func aaMain(args []string) int {
	fs := flag.NewFlagSet("aa", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per set and workload")
	seedBase := fs.Int64("seed-base", 1000, "set A uses seeds seed-base..+runs-1, set B the next runs seeds")
	fs.Parse(args)

	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench aa:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench aa:", err)
		return 2
	}

	// values[workload][set][metric] lists the runs' values; shares the
	// failed shares.
	values := make(map[string]*[2]map[string][]float64)
	shares := make(map[string]*[2][]float64)
	for _, w := range spec.Workloads {
		values[w.Name] = &[2]map[string][]float64{{}, {}}
		shares[w.Name] = &[2][]float64{}
	}
	for i := 0; i < *runs; i++ {
		for s := 0; s < 2; s++ {
			seed := *seedBase + int64(s**runs+i)
			for _, w := range spec.Workloads {
				res, steal, err := runOnce(self, w.Name, seed, spec.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench aa: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "perfbench aa: %s seed %d: outputs incorrect\n", w.Name, seed)
					return 1
				}
				fmt.Fprintf(os.Stderr, "perfbench aa: set %c run %d %s seed %d: %ssteal=%.4f\n", 'A'+s, i+1, w.Name, seed, brief(res), steal)
				for name, m := range res.Metrics {
					values[w.Name][s][name] = append(values[w.Name][s][name], m.Value)
				}
				shares[w.Name][s] = append(shares[w.Name][s], float64(res.Failed)/float64(res.Attempted))
			}
		}
	}

	ok := true
	fmt.Printf("%-8s %-22s %-4s %12s %12s %12s %8s  %s\n", "workload", "metric", "set", "median", "q1", "q3", "spread", "verdict")
	for _, w := range spec.Workloads {
		for _, e := range spec.EndToEnd {
			a, b := values[w.Name][0][e.Name], values[w.Name][1][e.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict := "ok"
			var meds [2]float64
			for s, vs := range [][]float64{a, b} {
				q1, med, q3 := quartiles(vs)
				spread := (q3 - q1) / med
				meds[s] = med
				if e.Name != "setup_s" && spread > e.Bound {
					verdict = fmt.Sprintf("set %c spread above bound %.2f", 'A'+s, e.Bound)
				}
				fmt.Printf("%-8s %-22s %-4c %12.6g %12.6g %12.6g %8.4f\n", w.Name, e.Name, 'A'+s, med, q1, q3, spread)
			}
			diff := (meds[1] - meds[0]) / meds[0]
			if math.Abs(diff) > e.Bound {
				verdict = fmt.Sprintf("medians differ by %.3f > bound %.2f", diff, e.Bound)
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Printf("%-8s %-22s %-4s %12s %12s %12s %8s  %s (B vs A %+.4f)\n", w.Name, e.Name, "", "", "", "", "", verdict, diff)
		}
		if !sameShares(shares[w.Name][0], shares[w.Name][1]) {
			fmt.Printf("%-8s failed share differs between the sets: %v vs %v\n", w.Name, shares[w.Name][0], shares[w.Name][1])
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs one untraced benchmark invocation and parses its result and
// the median share of CPU time its host stole during its passes.
func runOnce(self, workload string, seed int64, seconds int) (*result, float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, 0, fmt.Errorf("parsing result: %w", err)
	}
	var report struct {
		Steal float64 `json:"steal_share_median"`
	}
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "self-report "); ok {
			if err := json.Unmarshal([]byte(rest), &report); err != nil {
				return nil, 0, fmt.Errorf("parsing self-report: %w", err)
			}
		}
	}
	return &res, report.Steal, nil
}

func brief(res *result) string {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%.6g ", name, res.Metrics[name].Value)
	}
	return b.String()
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// sameShares reports whether every run of both sets failed the same share
// of its operations.
func sameShares(a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if x != y {
				return false
			}
		}
	}
	return true
}
