package stats

import (
	"fmt"

	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/standards"
)

// FromSpills folds one or more spill files into a fresh Aggregate by
// streaming records through the same AddVisit/AddFailure/EndSite path a
// live pipeline run uses — the full log is never materialized, so memory
// stays bounded by in-flight sites (streams written by the pipeline carry
// site-end markers; sites a stream never closes are retired at EOF).
//
// stdOf is the per-feature standard mapping (see StandardsOf) and must
// match the spill files' corpus size. cases must cover every case the
// spills record; a superset (measure.AllCases when the run's profile is
// unknown) is always safe — untracked-in-practice cases simply stay empty,
// exactly as in a log the case never reached.
func FromSpills(stdOf []standards.Abbrev, cases []measure.Case, paths ...string) (*Aggregate, error) {
	s, err := logstore.OpenSpillFiles(paths...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return FromSpillStream(stdOf, cases, s)
}

// FromSpillStream is FromSpills over an already opened stream: the form the
// distributed coordinator uses to fold a completed lease's spill bytes —
// streamed home by a remote worker — into a per-lease aggregate it then
// merges into the survey total. The caller retains ownership of the stream
// (and closes it).
func FromSpillStream(stdOf []standards.Abbrev, cases []measure.Case, s *logstore.SpillStream) (*Aggregate, error) {
	if len(stdOf) != s.NumFeatures() {
		return nil, fmt.Errorf("stats: %d standards mappings for a %d-feature spill", len(stdOf), s.NumFeatures())
	}
	agg, err := New(Config{
		NumFeatures: s.NumFeatures(),
		NumSites:    len(s.Domains()),
		Standards:   stdOf,
		Cases:       cases,
		Stripes:     1,
	})
	if err != nil {
		return nil, err
	}
	if err := Replay(agg, s); err != nil {
		return nil, err
	}
	agg.EndOpenSites()
	return agg, nil
}

// Replay folds a spill stream's records into an existing aggregate
// through the same AddVisit/AddFailure/EndSite path a live crawl uses.
// It is the resume primitive: a restarted run replays the committed
// records of its previous life into the fresh aggregate before
// crawling the remainder, and because every fold is commutative the
// result is byte-identical to a run that never crashed. Unlike
// FromSpillStream it does not retire open sites at EOF — the caller's
// crawl is still going to finish them.
//
// Records go straight from the stream's borrowed bitset into AddVisit,
// which only borrows it too, so replaying allocates nothing per visit.
//
// A site's end marker follows every record of the site, so a record after
// it means a corrupt or spliced stream; Replay rejects it rather than fold
// the site a second time.
func Replay(agg *Aggregate, s *logstore.SpillStream) error {
	if agg.cfg.NumFeatures != s.NumFeatures() || agg.cfg.NumSites != len(s.Domains()) {
		return fmt.Errorf("stats: replaying a %d-feature × %d-site spill into a %d × %d aggregate",
			s.NumFeatures(), len(s.Domains()), agg.cfg.NumFeatures, agg.cfg.NumSites)
	}
	ended := make([]bool, agg.cfg.NumSites)
	return s.Scan(func(rec logstore.SpillRecord) error {
		if ended[rec.Site] && rec.Kind != logstore.SpillSiteEnd {
			return fmt.Errorf("stats: spill record for site %d after its end marker", rec.Site)
		}
		switch rec.Kind {
		case logstore.SpillObservation:
			return agg.AddVisit(Visit{
				Case:        rec.Obs.Case,
				Round:       rec.Obs.Round,
				Site:        rec.Obs.Site,
				Features:    rec.Obs.Features,
				Invocations: rec.Obs.Invocations,
				Pages:       rec.Obs.Pages,
			})
		case logstore.SpillFailure:
			return agg.AddFailure(rec.Site)
		case logstore.SpillSiteEnd:
			ended[rec.Site] = true
			return agg.EndSite(rec.Site)
		}
		return nil
	})
}
