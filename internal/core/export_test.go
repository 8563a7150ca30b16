package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

// savedLog runs a study and returns the bytes SaveLog writes for it.
func savedLog(t *testing.T, cfg Config) (*Results, []byte) {
	t.Helper()
	s, res := smallStudy(t, cfg)
	path := filepath.Join(t.TempDir(), "survey.csv")
	if err := s.SaveLog(path, res); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return res, out
}

// TestSaveLogAfterResume tears a run's spill writes midway, resumes it over
// the same directory, and requires the log SaveLog converts from the
// resumed run's committed files — the compacted stream of the first life's
// committed sites, then each shard's file — to equal an uninterrupted run's
// byte for byte.
func TestSaveLogAfterResume(t *testing.T) {
	_, want := savedLog(t, crashStudyConfig(t.TempDir()))

	// tear configures a run into a fresh directory whose shard 0 spill
	// stream tears at its hit-th write; hit 0 leaves the injector disarmed.
	tear := func(hit int) (*faultinject.Injector, Config) {
		in := faultinject.New(int64(hit))
		if hit > 0 {
			in.Arm("spill", hit)
		}
		cfg := crashStudyConfig(t.TempDir())
		cfg.SpillTap = func(shard int, w io.Writer) io.Writer {
			if shard == 0 {
				return in.TornWriter("spill", w)
			}
			return w
		}
		return in, cfg
	}
	in, cfg := tear(0)
	smallStudy(t, cfg)
	writes := in.Count("spill")
	if writes < 3 {
		t.Fatalf("shard 0 made only %d spill writes; a tear midway proves nothing", writes)
	}

	_, cfg = tear(writes / 2)
	crashed, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	if _, err := crashed.RunSurvey(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn run err = %v, want the injected tear", err)
	}

	resumeCfg := crashStudyConfig(cfg.SpillDir)
	resumeCfg.Resume = true
	res, got := savedLog(t, resumeCfg)
	if res.Resumed == 0 || res.Resumed == cfg.Sites {
		t.Fatalf("resume replayed %d of %d sites; the tear should leave some committed and some not", res.Resumed, cfg.Sites)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("log saved after resume differs from the uninterrupted run's (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSaveLogReadsOnlyCommittedFiles runs twice into one spill directory,
// first on three shards, then on two, and requires the second run's saved
// log to equal that of a two-shard run into a fresh directory: the first
// run's shard-002.spill is still in the directory, but the second run never
// committed it.
func TestSaveLogReadsOnlyCommittedFiles(t *testing.T) {
	fresh := crashStudyConfig(t.TempDir())
	_, want := savedLog(t, fresh)

	dir := t.TempDir()
	wide := crashStudyConfig(dir)
	wide.Shards = 3
	savedLog(t, wide)
	if _, err := os.Stat(filepath.Join(dir, "shard-002.spill")); err != nil {
		t.Fatalf("the three-shard run left no third shard file: %v", err)
	}

	res, got := savedLog(t, crashStudyConfig(dir))
	if len(res.Spills) != fresh.Shards {
		t.Errorf("the two-shard run reports spill files %v", res.Spills)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("log saved from a reused directory differs from a fresh directory's (%d vs %d bytes)", len(got), len(want))
	}
}
