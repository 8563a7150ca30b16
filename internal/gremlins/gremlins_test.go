package gremlins

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/browser"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
	"repro/internal/webserver"
)

func loadPage(t testing.TB) *browser.Page {
	t.Helper()
	reg, err := webidl.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b := browser.New(webapi.NewBindings(reg), webserver.DirectFetcher{Web: web})
	for _, s := range web.Sites {
		if s.Failure != synthweb.FailNone {
			continue
		}
		page, err := b.Load("http://" + s.Domain + "/")
		if err != nil {
			t.Fatal(err)
		}
		return page
	}
	t.Fatal("no loadable site")
	return nil
}

func TestDefaultHordeShape(t *testing.T) {
	h := Default()
	if h.Seconds != 30 {
		t.Errorf("default budget = %v, want 30 (paper §4.3.1)", h.Seconds)
	}
	var total float64
	for _, w := range h.Species {
		total += w.Weight
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("species weights sum to %v", total)
	}
}

func TestUnleashActsAndAdvancesClock(t *testing.T) {
	page := loadPage(t)
	rng := rand.New(rand.NewSource(1))
	stats := Default().Unleash(page, rng)
	if stats.Actions == 0 {
		t.Fatal("horde performed no actions")
	}
	if page.Clock < 29.9 {
		t.Errorf("page clock = %v, want ~30", page.Clock)
	}
	if stats.VirtualSeconds != 30 {
		t.Errorf("virtual seconds = %v", stats.VirtualSeconds)
	}
	sum := 0
	for _, n := range stats.PerSpecies {
		sum += n
	}
	if len(stats.PerSpecies) != len(Default().Species) || sum != stats.Actions {
		t.Errorf("per-species counts %v do not add up to %d actions", stats.PerSpecies, stats.Actions)
	}
}

func TestHordeTriggersNavigations(t *testing.T) {
	page := loadPage(t)
	rng := rand.New(rand.NewSource(2))
	Default().Unleash(page, rng)
	if len(page.NavAttempts) == 0 {
		t.Error("30s of monkey testing produced no navigation attempts")
	}
}

func TestHordeDeterministic(t *testing.T) {
	p1 := loadPage(t)
	p2 := loadPage(t)
	s1 := Default().Unleash(p1, rand.New(rand.NewSource(7)))
	s2 := Default().Unleash(p2, rand.New(rand.NewSource(7)))
	if s1.Actions != s2.Actions {
		t.Fatalf("same seed, different actions: %d vs %d", s1.Actions, s2.Actions)
	}
	if p1.Runtime.TotalNativeCalls() != p2.Runtime.TotalNativeCalls() {
		t.Fatal("same seed, different feature activity")
	}
}

func TestSpeciesMixRoughlyMatchesWeights(t *testing.T) {
	page := loadPage(t)
	h := &Horde{
		Species: []Weighted{
			{Clicker{}, 0.5},
			{Scroller{}, 0.5},
		},
		Seconds:          200,
		ActionsPerSecond: 2,
	}
	stats := h.Unleash(page, rand.New(rand.NewSource(3)))
	clicks := stats.PerSpecies[0]
	scrolls := stats.PerSpecies[1]
	if clicks == 0 || scrolls == 0 {
		t.Fatalf("species starved: clicks=%d scrolls=%d", clicks, scrolls)
	}
	ratio := float64(clicks) / float64(clicks+scrolls)
	if ratio < 0.35 || ratio > 0.65 {
		t.Errorf("click share %.2f, want ~0.5", ratio)
	}
}

func TestEmptyHordeDoesNothing(t *testing.T) {
	page := loadPage(t)
	h := &Horde{}
	stats := h.Unleash(page, rand.New(rand.NewSource(4)))
	if stats.Actions != 0 {
		t.Fatal("empty horde acted")
	}
}

func TestTyperFindsFields(t *testing.T) {
	page := loadPage(t)
	rng := rand.New(rand.NewSource(5))
	if !(Typer{}).Act(page, rng) {
		t.Fatal("typer found no fields on a generated page (pages carry #q)")
	}
}

// idler is a species that never finds anything to do.
type idler struct{}

func (idler) Name() string                       { return "idler" }
func (idler) Act(*browser.Page, *rand.Rand) bool { return false }

// refStats is Stats as it was when actions were counted by species name.
type refStats struct {
	Actions        int
	PerSpecies     map[string]int
	VirtualSeconds float64
}

// unleashByName is Unleash as it counted before counting by species index:
// a map assignment keyed by Name() per action. It is the reference for
// TestPerSpeciesMatchesReference.
func unleashByName(h *Horde, p *browser.Page, rng *rand.Rand) refStats {
	stats := refStats{PerSpecies: make(map[string]int)}
	if h.ActionsPerSecond <= 0 || h.Seconds <= 0 || len(h.Species) == 0 {
		return stats
	}
	step := 1.0 / h.ActionsPerSecond
	var totalWeight float64
	for _, w := range h.Species {
		totalWeight += w.Weight
	}
	for t := 0.0; t < h.Seconds; t += step {
		x := rng.Float64() * totalWeight
		var chosen Species
		for _, w := range h.Species {
			if x < w.Weight {
				chosen = w.Species
				break
			}
			x -= w.Weight
		}
		if chosen == nil {
			chosen = h.Species[len(h.Species)-1].Species
		}
		if chosen.Act(p, rng) {
			stats.Actions++
			stats.PerSpecies[chosen.Name()]++
		}
		p.AdvanceClock(step)
	}
	stats.VirtualSeconds = h.Seconds
	return stats
}

// TestPerSpeciesMatchesReference holds Unleash's statistics, its
// per-species counts summed by species name, and the page activity it
// causes to the per-name reference, for hordes with a species that never
// acts and with two entries of one species.
func TestPerSpeciesMatchesReference(t *testing.T) {
	hordes := map[string]*Horde{
		"default": Default(),
		"idler-and-duplicate": {
			Species: []Weighted{
				{Clicker{}, 0.3},
				{idler{}, 0.2},
				{Scroller{}, 0.2},
				{Clicker{}, 0.3},
			},
			Seconds:          60,
			ActionsPerSecond: 2,
		},
		"empty": {},
	}
	for name, h := range hordes {
		for seed := int64(1); seed <= 3; seed++ {
			p1, p2 := loadPage(t), loadPage(t)
			stats := h.Unleash(p1, rand.New(rand.NewSource(seed)))
			got := refStats{Actions: stats.Actions, PerSpecies: make(map[string]int), VirtualSeconds: stats.VirtualSeconds}
			for i, n := range stats.PerSpecies {
				if n > 0 {
					got.PerSpecies[h.Species[i].Species.Name()] += n
				}
			}
			want := unleashByName(h, p2, rand.New(rand.NewSource(seed)))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: Unleash = %+v, reference %+v", name, seed, got, want)
			}
			if p1.Clock != p2.Clock || p1.Runtime.TotalNativeCalls() != p2.Runtime.TotalNativeCalls() {
				t.Errorf("%s seed %d: page activity differs from the reference", name, seed)
			}
		}
	}
}
