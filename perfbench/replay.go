package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The replay and live workloads survey the paper's scale: 10,000 sites ×
// 4 configurations × 5 rounds, generated from the synthetic web's ground
// truth rather than crawled.
const (
	paperSites  = 10000
	paperRounds = 5
)

// paperStudy builds the paper-scale study, then the view of its ground
// truth the workloads generate their surveys from and the tallies those
// surveys must reload to. Only the study counts as set-up: the surveys are
// regenerated on demand in each pass, untimed, and the tallies are the
// benchmark's own.
func paperStudy(r *run) (*core.Study, *truth, *tally, error) {
	var study *core.Study
	err := r.setup(func() error {
		var err error
		study, err = core.NewStudy(core.Config{Sites: paperSites, Seed: r.seed, Rounds: paperRounds, Cases: measure.AllCases()})
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	t := newTruth(study.Web, study.Cfg.Cases, paperRounds)
	want := t.expected(r.seed)
	if r.traced && r.primary() {
		if err := r.setupLayers(paperSites); err != nil {
			return nil, nil, nil, err
		}
	}
	return study, t, want, nil
}

// replayFiles are the three saved forms of the generated survey.
type replayFiles struct{ spill, binary, csv string }

// replayTimes is one pass's phase times.
type replayTimes struct{ save, fromSpills, fromLog, loadLog time.Duration }

func runReplay(r *run) error {
	study, t, want, err := paperStudy(r)
	if err != nil {
		return err
	}
	defer study.Close()
	files := replayFiles{
		spill:  filepath.Join(r.dir, "survey.spill"),
		binary: filepath.Join(r.dir, "survey.bin"),
		csv:    filepath.Join(r.dir, "survey.csv"),
	}
	sites := make([]int, len(study.Web.Sites))
	for i := range sites {
		sites[i] = i
	}

	var times []replayTimes
	var stolenOf []float64
	var mem memSeries
	var tracedWall, untracedWall []time.Duration
	var last *tracer
	err = r.passes(2, func(i int, timed bool) (func(float64), error) {
		pt, m, err := replayPass(r, study, t, want, files, sites, nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: save %.4fs, report from spills %.4fs, report from log %.4fs, load log %.4fs\n",
			i+1, pt.save.Seconds(), pt.fromSpills.Seconds(), pt.fromLog.Seconds(), pt.loadLog.Seconds())
		keep := func(stolen float64) {
			times = append(times, pt)
			stolenOf = append(stolenOf, stolen)
			mem.add(m)
		}
		if !r.traced || !timed {
			return keep, nil
		}
		runtime.GC()
		tr := newTracer()
		if _, _, err := replayPass(r, study, t, want, files, sites, tr); err != nil {
			return nil, err
		}
		if err := replaySplits(tr, study, files); err != nil {
			return nil, err
		}
		return func(stolen float64) {
			keep(stolen)
			tracedWall = append(tracedWall, tr.total("replay.save")+tr.total("replay.report_from_spills")+
				tr.total("replay.report_from_log")+tr.total("replay.load_log"))
			untracedWall = append(untracedWall, pt.save+pt.fromSpills+pt.fromLog+pt.loadLog)
			last = tr
		}, nil
	})
	if err != nil {
		return err
	}
	if !r.traced {
		var pass, wall, save, spills, fromLog, load []float64
		for i, pt := range times {
			st := stolenOf[i]
			total := pt.save + pt.fromSpills + pt.fromLog + pt.loadLog
			pass = append(pass, unstolen(total, st))
			wall = append(wall, total.Seconds())
			save = append(save, unstolen(pt.save, st))
			spills = append(spills, unstolen(pt.fromSpills, st))
			fromLog = append(fromLog, unstolen(pt.fromLog, st))
			load = append(load, unstolen(pt.loadLog, st))
		}
		r.set("pass_s", "s", median(pass), len(pass))
		r.phases["pass_wall_s"] = median(wall)
		r.phases["save_s"] = median(save)
		r.phases["report_from_spills_s"] = median(spills)
		r.phases["report_from_log_s"] = median(fromLog)
		r.phases["load_log_s"] = median(load)
		return nil
	}
	if r.primary() {
		mem.report(r)
		un := median(secs(untracedWall))
		r.set("trace.overhead_pct", "%", 100*(median(secs(tracedWall))-un)/un, len(tracedWall))
	}
	return replayLayers(r, last)
}

// replayPass runs the four phases once, making the same public calls with
// or without a tracer; with one, each call gets a span. Every phase's
// output is checked against the generated survey's tallies after its clock
// stops.
func replayPass(r *run, study *core.Study, t *truth, want *tally, files replayFiles, sites []int, tr *tracer) (replayTimes, *memPhase, error) {
	var pt replayTimes
	m := &memPhase{}
	root := tr.begin("replay.pass", 0, tr.newOp())
	defer tr.end(root)
	// phase times fn after a GC, outside any earlier phase's garbage; fn
	// gets the phase's operation and span.
	phase := func(name string, fn func(op, parent int) error) (time.Duration, error) {
		gc := tr.begin("runtime.gc", root, tr.newOp())
		runtime.GC()
		tr.end(gc)
		op := tr.newOp()
		m.start()
		t0 := time.Now()
		id := tr.begin(name, root, op)
		err := fn(op, id)
		tr.end(id)
		d := time.Since(t0)
		m.stop()
		return d, err
	}
	// call runs one public call of a phase under a span.
	call := func(name string, parent, op int, fn func() error) error {
		id := tr.begin(name, parent, op)
		defer tr.end(id)
		return fn()
	}

	// The survey is the save phase's input: regenerate it, untimed.
	gid := tr.begin("bench.generate", root, tr.newOp())
	obs := t.observations(r.seed, sites)
	log := t.buildLog(obs)
	tr.end(gid)
	var err error
	pt.save, err = phase("replay.save", func(op, parent int) error {
		if err := call("logstore.spill_encode", parent, op, func() error { return saveSpill(t, files.spill, obs, sites) }); err != nil {
			return err
		}
		if err := call("logstore.binary_encode", parent, op, func() error { return logstore.WriteFile(files.binary, logstore.Binary{}, log) }); err != nil {
			return err
		}
		return call("logstore.csv_encode", parent, op, func() error { return logstore.WriteFile(files.csv, logstore.CSV{}, log) })
	})
	obs, log = nil, nil
	if !r.op("save", err) {
		return pt, m, nil
	}

	var report bytes.Buffer
	var res *core.Results
	pt.fromSpills, err = phase("replay.report_from_spills", func(op, parent int) error {
		err := call("core.results_from_spills", parent, op, func() (err error) {
			res, err = study.ResultsFromSpills(files.spill)
			return err
		})
		if err != nil {
			return err
		}
		return call("core.write_aggregate_report", parent, op, func() error { return study.WriteAggregateReport(&report, res) })
	})
	if r.op("report from spills", err) {
		r.check(t.compareSource("report -spills", want, res.Agg))
		r.check(nonEmpty("aggregate report", report.Len()))
	}

	report.Reset()
	var l *measure.Log
	var a *analysis.Analysis
	pt.fromLog, err = phase("replay.report_from_log", func(op, parent int) error {
		err := call("logstore.csv_decode", parent, op, func() (err error) {
			l, err = logstore.ReadFile(files.csv)
			return err
		})
		if err != nil {
			return err
		}
		call("analysis.new", parent, op, func() error {
			a = analysis.New(l, study.Registry)
			return nil
		})
		return call("core.write_report", parent, op, func() error {
			return study.WriteReport(&report, &core.Results{Log: l, Stats: statsFromLog(l), Analysis: a})
		})
	})
	if r.op("report from log", err) {
		inv, pages := logTotals(l)
		r.check(t.compare("report -log", want, a, l.MeasuredCount(), inv, pages))
		r.check(nonEmpty("full report", report.Len()))
	}
	l, a = nil, nil

	// serve -load is serve.LoadLog; traced, its three public calls are
	// made one by one.
	var agg *stats.Aggregate
	pt.loadLog, err = phase("replay.load_log", func(op, parent int) error {
		if tr == nil {
			var err error
			agg, err = serve.LoadLog(study, files.binary)
			return err
		}
		var l *measure.Log
		err := call("logstore.binary_decode", parent, op, func() (err error) {
			l, err = logstore.ReadFile(files.binary)
			return err
		})
		if err != nil {
			return err
		}
		err = call("stats.from_log", parent, op, func() (err error) {
			agg, err = stats.FromLog(l, stats.StandardsOf(study.Registry), study.Cfg.Cases)
			return err
		})
		if err != nil {
			return err
		}
		return call("stats.publish", parent, op, func() error {
			agg.Publish()
			return nil
		})
	})
	if r.op("serve -load", err) {
		r.check(t.compareSource("serve -load", want, agg))
		if agg.Epoch() == 0 {
			r.check(fmt.Errorf("serve -load: aggregate was not published"))
		}
	}
	return pt, m, nil
}

func nonEmpty(what string, n int) error {
	if n == 0 {
		return fmt.Errorf("%s rendered no bytes", what)
	}
	return nil
}

// saveSpill writes the survey as a spill file the way a crawl shard does,
// published atomically on Close.
func saveSpill(t *truth, path string, obs []logstore.Observation, sites []int) error {
	w, err := logstore.CreateAtomic(path, t.numFeatures, t.domains)
	if err != nil {
		return err
	}
	if err := t.writeSpill(w, obs, sites); err != nil {
		w.Discard()
		return err
	}
	return w.Close()
}

// statsFromLog is Table 1's summary of a log, as report -log derives it.
func statsFromLog(l *measure.Log) *crawler.Stats {
	s := &crawler.Stats{DomainsMeasured: l.MeasuredCount()}
	s.DomainsFailed = len(l.Domains) - s.DomainsMeasured
	for _, cl := range l.Cases {
		s.PagesVisited += cl.PagesVisited
		s.Invocations += cl.Invocations
	}
	s.InteractionSeconds = float64(s.PagesVisited) * crawler.DefaultConfig(0).PageSeconds
	return s
}

func logTotals(l *measure.Log) (inv, pages int64) {
	for _, cl := range l.Cases {
		inv += cl.Invocations
		pages += cl.PagesVisited
	}
	return inv, pages
}

// warmAnalysis runs the queries an Analysis memoizes (per configuration,
// the feature and standard site counts and the per-site standard sets), so
// the render that follows reuses them. Every other query runs inside the
// render.
func warmAnalysis(a *analysis.Analysis, cases []measure.Case) {
	for _, c := range cases {
		a.FeatureSites(c)
		a.StandardSites(c)
		a.SiteStandards(c)
	}
}

// replaySplits splits what a traced pass can only time whole, re-driving
// the inputs outside-in: report -spills' spill decode, the fold of the
// decoded records into an aggregate, warm analysis and the render; report
// -log's cold analysis, the human protocol and the render.
func replaySplits(tr *tracer, study *core.Study, files replayFiles) error {
	root := tr.begin("replay.splits", 0, tr.newOp())
	defer tr.end(root)
	op := tr.newOp()
	id := tr.begin("logstore.spill_decode", root, op)
	s, err := logstore.OpenSpillFiles(files.spill)
	if err != nil {
		return err
	}
	recs, err := readRecords(s)
	s.Close()
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("stats.from_spills_fold", root, op)
	agg, err := stats.New(stats.Config{
		NumFeatures: len(study.Registry.Features), NumSites: len(study.Web.Sites),
		Standards: stats.StandardsOf(study.Registry), Cases: study.Cfg.Cases,
	})
	if err != nil {
		return err
	}
	for _, rec := range recs {
		switch rec.Kind {
		case logstore.SpillObservation:
			o := rec.Obs
			err = agg.AddVisit(stats.Visit{Case: o.Case, Round: o.Round, Site: o.Site, Features: o.Features, Invocations: o.Invocations, Pages: o.Pages})
		case logstore.SpillFailure:
			err = agg.AddFailure(rec.Site)
		case logstore.SpillSiteEnd:
			err = agg.EndSite(rec.Site)
		}
		if err != nil {
			return err
		}
	}
	agg.EndOpenSites()
	tr.end(id)
	recs = nil
	id = tr.begin("analysis.warm", root, op)
	res := study.AggregateResults(agg)
	warmAnalysis(res.Analysis, study.Cfg.Cases)
	tr.end(id)
	id = tr.begin("report.render_aggregate", root, op)
	err = study.WriteAggregateReport(io.Discard, res)
	tr.end(id)
	if err != nil {
		return err
	}

	op = tr.newOp()
	l, err := logstore.ReadFile(files.csv)
	if err != nil {
		return err
	}
	id = tr.begin("analysis.cold", root, op)
	a := analysis.New(l, study.Registry)
	warmAnalysis(a, study.Cfg.Cases)
	tr.end(id)
	res = &core.Results{Log: l, Stats: statsFromLog(l), Analysis: a}
	id = tr.begin("crawler.human_visits", root, op)
	_, err = study.RunExternalValidation(res)
	tr.end(id)
	if err != nil {
		return err
	}
	// The full report runs the human protocol again, inside WriteReport.
	id = tr.begin("report.render_full", root, op)
	err = study.WriteReport(io.Discard, res)
	tr.end(id)
	return err
}

// replayLayers turns the last traced pass's spans into per-layer metrics.
func replayLayers(r *run, tr *tracer) error {
	if tr == nil {
		return fmt.Errorf("no traced replay pass completed")
	}
	one := func(name string) float64 { return tr.total(name).Seconds() }
	r.set("logstore.spill_encode_s", "s", one("logstore.spill_encode"), 1)
	r.set("logstore.binary_encode_s", "s", one("logstore.binary_encode"), 1)
	r.set("logstore.csv_encode_s", "s", one("logstore.csv_encode"), 1)
	r.set("logstore.spill_decode_s", "s", one("logstore.spill_decode"), 1)
	r.set("logstore.csv_decode_s", "s", one("logstore.csv_decode"), 1)
	r.set("logstore.binary_decode_s", "s", one("logstore.binary_decode"), 1)
	r.set("stats.from_spills_fold_s", "s", one("stats.from_spills_fold"), 1)
	r.set("stats.from_log_s", "s", one("stats.from_log"), 1)
	r.set("stats.publish_ms", "ms", 1000*one("stats.publish"), 1)
	r.set("analysis.warm_s", "s", one("analysis.warm"), 1)
	r.set("analysis.cold_s", "s", one("analysis.cold"), 1)
	r.set("crawler.human_visits_s", "s", one("crawler.human_visits"), 1)
	// The full report runs the human protocol again inside WriteReport.
	r.set("report.render_s", "s", one("report.render_aggregate")+one("report.render_full")-one("crawler.human_visits"), 1)
	for _, f := range []struct{ name, path string }{
		{"logstore.binary_bytes", filepath.Join(r.dir, "survey.bin")},
		{"logstore.csv_bytes", filepath.Join(r.dir, "survey.csv")},
		{"logstore.spill_bytes", filepath.Join(r.dir, "survey.spill")},
	} {
		info, err := os.Stat(f.path)
		if err != nil {
			return err
		}
		r.set(f.name, "bytes", float64(info.Size()), 1)
	}
	return r.finishTrace(tr)
}
