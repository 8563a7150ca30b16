package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/measure"
)

// crashStudyConfig is a small spilling pipeline study sized so the
// crash matrix stays fast while still spanning several spill flushes
// per shard.
func crashStudyConfig(spillDir string) Config {
	return Config{
		Sites:        10,
		Seed:         7,
		Rounds:       1,
		Cases:        []measure.Case{measure.CaseDefault, measure.CaseBlocking},
		Shards:       2,
		ShardWorkers: 1,
		BatchSize:    4,
		SpillDir:     spillDir,
	}
}

// aggregateReport renders the run's aggregate report to bytes.
func aggregateReport(t *testing.T, s *Study, res *Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteReport(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCrashMatrixSingleMachine extends the repo's "every geometry writes
// the same bytes" invariant to "crashed-and-resumed ≡ uninterrupted": for
// every spill write of every shard, a run whose spill stream tears at
// exactly that write — a seeded faultinject tear, reproducible from the
// logged (seed, shard, hit) — must, after a resume over the same spill
// directory, produce a byte-identical aggregate report.
func TestCrashMatrixSingleMachine(t *testing.T) {
	const seed = 1009

	// Ground truth: the uninterrupted run.
	cleanDir := t.TempDir()
	clean, err := NewStudy(crashStudyConfig(cleanDir))
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.RunSurvey()
	if err != nil {
		t.Fatal(err)
	}
	want := aggregateReport(t, clean, cleanRes)

	// Dry run per shard: count that shard's spill writes with a
	// disarmed injector to size the matrix.
	countWrites := func(shard int) int {
		in := faultinject.New(seed)
		dir := t.TempDir()
		cfg := crashStudyConfig(dir)
		cfg.SpillTap = func(s int, w io.Writer) io.Writer {
			if s == shard {
				return in.TornWriter("spill", w)
			}
			return w
		}
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSurvey(); err != nil {
			t.Fatalf("disarmed dry run failed: %v", err)
		}
		return in.Count("spill")
	}

	for shard := 0; shard < 2; shard++ {
		writes := countWrites(shard)
		if writes < 2 {
			t.Fatalf("shard %d made only %d spill writes; matrix would prove nothing", shard, writes)
		}
		for hit := 1; hit <= writes; hit++ {
			in := faultinject.New(seed + int64(hit))
			in.Arm("spill", hit)
			dir := t.TempDir()
			cfg := crashStudyConfig(dir)
			cfg.SpillTap = func(s int, w io.Writer) io.Writer {
				if s == shard {
					return in.TornWriter("spill", w)
				}
				return w
			}
			s, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunSurvey(); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("seed=%d shard=%d hit=%d: crashed run err = %v, want injected tear", seed, shard, hit, err)
			}

			// Second life: same spill dir, no faults, resume on.
			cfg2 := crashStudyConfig(dir)
			cfg2.Resume = true
			s2, err := NewStudy(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s2.RunSurvey()
			if err != nil {
				t.Fatalf("seed=%d shard=%d hit=%d: resume failed: %v", seed, shard, hit, err)
			}
			got := aggregateReport(t, s2, res)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed=%d shard=%d hit=%d: resumed report differs from uninterrupted run", seed, shard, hit)
			}
		}
	}
}

// TestResumeCompletedRunIsPure pins the fixpoint: resuming over a spill
// directory of a finished run replays every site, crawls nothing, and
// reports identically.
func TestResumeCompletedRunIsPure(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStudy(crashStudyConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunSurvey()
	if err != nil {
		t.Fatal(err)
	}
	want := aggregateReport(t, s, res)

	cfg := crashStudyConfig(dir)
	cfg.Resume = true
	s2, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.RunSurveyContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 10 {
		t.Fatalf("Resumed = %d, want all 10 sites replayed", res2.Resumed)
	}
	if got := aggregateReport(t, s2, res2); !bytes.Equal(got, want) {
		t.Fatal("resume of a completed run changed the report")
	}
}

// TestResumeFreshDirIsNoop pins that Resume on a virgin spill directory
// behaves exactly like a fresh run.
func TestResumeFreshDirIsNoop(t *testing.T) {
	cleanDir := t.TempDir()
	s, err := NewStudy(crashStudyConfig(cleanDir))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunSurvey()
	if err != nil {
		t.Fatal(err)
	}
	want := aggregateReport(t, s, res)

	dir := t.TempDir()
	cfg := crashStudyConfig(dir)
	cfg.Resume = true
	s2, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.RunSurvey()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 0 {
		t.Fatalf("fresh dir Resumed = %d, want 0", res2.Resumed)
	}
	if got := aggregateReport(t, s2, res2); !bytes.Equal(got, want) {
		t.Fatal("resume-enabled fresh run diverged from plain run")
	}
}
