package gremlins

import (
	"math/rand"

	"repro/internal/browser"
)

// Species is one kind of gremlin.
type Species interface {
	// Name identifies the species.
	Name() string
	// Act performs one interaction; it reports whether it found
	// something to do.
	Act(p *browser.Page, rng *rand.Rand) bool
}

// Clicker clicks a random visible interactive element.
type Clicker struct{}

// Name implements Species.
func (Clicker) Name() string { return "clicker" }

// Act implements Species.
func (Clicker) Act(p *browser.Page, rng *rand.Rand) bool {
	els := p.Interactive()
	if len(els) == 0 {
		return false
	}
	p.Click(els[rng.Intn(len(els))])
	return true
}

// Scroller scrolls the page.
type Scroller struct{}

// Name implements Species.
func (Scroller) Name() string { return "scroller" }

// Act implements Species.
func (Scroller) Act(p *browser.Page, rng *rand.Rand) bool {
	p.Scroll()
	return true
}

// Typer enters random text into a random form field.
type Typer struct{}

// Name implements Species.
func (Typer) Name() string { return "typer" }

var typerWords = []string{"hello", "test", "gremlin", "query", "42", "zzz"}

// Act implements Species. The candidate list comes from the page's cached
// form-field enumeration instead of a per-action filtered copy.
func (Typer) Act(p *browser.Page, rng *rand.Rand) bool {
	fields := p.FormFields()
	if len(fields) == 0 {
		return false
	}
	p.Input(fields[rng.Intn(len(fields))], typerWords[rng.Intn(len(typerWords))])
	return true
}

// Weighted pairs a species with its selection weight.
type Weighted struct {
	Species Species
	Weight  float64
}

// Stats summarizes one horde run.
type Stats struct {
	// Actions is the total number of gremlin actions performed.
	Actions int
	// PerSpecies counts actions by species, indexed like Horde.Species.
	PerSpecies []int
	// VirtualSeconds is the interaction time simulated.
	VirtualSeconds float64
}

// Horde drives a weighted mix of species against a page for a fixed
// virtual-time budget.
type Horde struct {
	// Species is the weighted species mix.
	Species []Weighted
	// Seconds is the interaction budget per page (paper: 30).
	Seconds float64
	// ActionsPerSecond is the gremlin action rate.
	ActionsPerSecond float64
}

// Default returns the paper-shaped horde: clicking dominates, with
// scrolling and text entry mixed in, 30 seconds at 2 actions per second.
func Default() *Horde {
	return &Horde{
		Species: []Weighted{
			{Clicker{}, 0.55},
			{Scroller{}, 0.25},
			{Typer{}, 0.20},
		},
		Seconds:          30,
		ActionsPerSecond: 2,
	}
}

// Unleash runs the horde against a page, advancing the page's virtual
// clock as it goes (so timer handlers fire on schedule).
func (h *Horde) Unleash(p *browser.Page, rng *rand.Rand) Stats {
	var stats Stats
	if h.ActionsPerSecond <= 0 || h.Seconds <= 0 || len(h.Species) == 0 {
		return stats
	}
	step := 1.0 / h.ActionsPerSecond
	var totalWeight float64
	for _, w := range h.Species {
		totalWeight += w.Weight
	}
	stats.PerSpecies = make([]int, len(h.Species))
	for t := 0.0; t < h.Seconds; t += step {
		x := rng.Float64() * totalWeight
		chosen := len(h.Species) - 1
		for i, w := range h.Species {
			if x < w.Weight {
				chosen = i
				break
			}
			x -= w.Weight
		}
		if h.Species[chosen].Species.Act(p, rng) {
			stats.Actions++
			stats.PerSpecies[chosen]++
		}
		p.AdvanceClock(step)
	}
	stats.VirtualSeconds = h.Seconds
	return stats
}
