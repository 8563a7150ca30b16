package alexa

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Top10kVisitShare is the fraction of all web visits the Alexa 10k receives
// (paper §3.1: "approximately one third").
const Top10kVisitShare = 1.0 / 3.0

// zipfExponent shapes the visit distribution across ranks. Web traffic is
// classically close to Zipfian with exponent just under 1.
const zipfExponent = 0.85

// Site is one ranked website.
type Site struct {
	// Rank is the global Alexa rank, starting at 1.
	Rank int
	// Domain is the registrable domain, e.g. "kexivo.example.com".
	// All generated domains sit under distinct registrable names.
	Domain string
	// MonthlyVisits is the estimated unique monthly visitor count.
	MonthlyVisits int64
	// MonthlyPageLoads is the estimated monthly page-load count.
	MonthlyPageLoads int64
	// CountryRanks gives the site's rank within sampled countries.
	CountryRanks map[string]int
	// Subsites lists popular fully-qualified subsites by share of the
	// site's traffic, most popular first.
	Subsites []Subsite
	// RelatedDomains lists domains Alexa groups with this site (CDNs,
	// alternate TLDs); the crawler treats them as same-site when
	// following links, per the paper's §4.3.1.
	RelatedDomains []string
}

// Subsite is one popular fully-qualified subsite of a ranked site.
type Subsite struct {
	Host  string
	Share float64
}

// Ranking is a generated Alexa-style list.
type Ranking struct {
	Sites []Site
	// TotalWebVisits is the modeled monthly visit count of the entire
	// web, normalized so the listed sites carry Top10kVisitShare of it
	// when the list has 10,000 entries.
	TotalWebVisits int64

	byDomain map[string]*Site
	related  map[string]string // related domain → primary domain
}

var domainSyllables = []string{
	"ka", "ve", "lo", "mi", "ta", "ren", "so", "ba", "du", "fi",
	"ne", "go", "pra", "zu", "hex", "li", "mo", "sa", "te", "vo",
	"qui", "ran", "pel", "dor", "nas", "ki", "ju", "wa", "xe", "cy",
}

var tlds = []string{".com", ".com", ".com", ".net", ".org", ".io", ".co", ".info"}

var countries = []string{"US", "DE", "JP", "BR", "IN", "GB", "FR", "RU"}

// Generate produces a deterministic ranking of n sites for the seed.
func Generate(n int, seed int64) *Ranking {
	rng := rand.New(rand.NewSource(seed))
	r := &Ranking{
		Sites:    make([]Site, n),
		byDomain: make(map[string]*Site, n),
		related:  make(map[string]string),
	}

	used := map[string]bool{}
	makeDomain := func() string {
		for {
			var b strings.Builder
			for i, k := 0, 2+rng.Intn(2); i < k; i++ {
				b.WriteString(domainSyllables[rng.Intn(len(domainSyllables))])
			}
			b.WriteString(tlds[rng.Intn(len(tlds))])
			d := b.String()
			if !used[d] {
				used[d] = true
				return d
			}
		}
	}

	// Zipf visit weights, normalized to a fixed head count.
	const headVisits = 2.0e8 // rank-1 monthly visitors
	var listTotal float64
	for i := range r.Sites {
		rank := i + 1
		visits := headVisits / math.Pow(float64(rank), zipfExponent)
		domain := makeDomain()
		site := Site{
			Rank:             rank,
			Domain:           domain,
			MonthlyVisits:    int64(visits),
			MonthlyPageLoads: int64(visits * (2.5 + 3*rng.Float64())),
			CountryRanks:     map[string]int{},
		}
		listTotal += visits

		// Country ranks: a site is popular in 1-4 countries with rank
		// jittered around its global rank.
		for _, c := range countries {
			if rng.Float64() < 0.3 {
				jitter := 1 + int(float64(rank)*(0.5+rng.Float64()))
				site.CountryRanks[c] = jitter
			}
		}

		// Subsites: www dominates, plus a few popular FQDN subsites.
		site.Subsites = append(site.Subsites, Subsite{Host: "www." + domain, Share: 0.6 + 0.3*rng.Float64()})
		rest := 1 - site.Subsites[0].Share
		for _, sub := range []string{"m", "news", "shop", "blog"} {
			if rng.Float64() < 0.4 {
				share := rest * (0.2 + 0.5*rng.Float64())
				rest -= share
				site.Subsites = append(site.Subsites, Subsite{Host: sub + "." + domain, Share: share})
			}
		}

		// Related domains: a CDN host and occasionally an alternate TLD.
		cdn := "cdn." + domain
		site.RelatedDomains = append(site.RelatedDomains, cdn)
		r.related[cdn] = domain
		if rng.Float64() < 0.25 {
			alt := strings.TrimSuffix(domain, domainTLD(domain)) + ".net"
			if !used[alt] {
				used[alt] = true
				site.RelatedDomains = append(site.RelatedDomains, alt)
				r.related[alt] = domain
			}
		}
		r.Sites[i] = site
	}
	for i := range r.Sites {
		r.byDomain[r.Sites[i].Domain] = &r.Sites[i]
	}
	r.TotalWebVisits = int64(listTotal / Top10kVisitShare)
	return r
}

func domainTLD(d string) string {
	if i := strings.LastIndexByte(d, '.'); i >= 0 {
		return d[i:]
	}
	return ""
}

// ByDomain returns the ranked site for a domain.
func (r *Ranking) ByDomain(domain string) (*Site, bool) {
	s, ok := r.byDomain[domain]
	return s, ok
}

// SameSite reports whether two hosts belong to the same ranked site,
// considering subdomains and Alexa related-domain data. The paper's crawler
// uses this to decide which monkey-testing navigations stay "local".
func (r *Ranking) SameSite(a, b string) bool {
	pa := r.primaryOf(a)
	return pa != "" && pa == r.primaryOf(b)
}

// primaryOf resolves a host to the primary ranked domain it belongs to,
// or "" if the host is not part of any ranked site.
func (r *Ranking) primaryOf(host string) string {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	// Direct or subdomain match against ranked domains.
	for h := host; h != ""; {
		if _, ok := r.byDomain[h]; ok {
			return h
		}
		if p, ok := r.related[h]; ok {
			return p
		}
		i := strings.IndexByte(h, '.')
		if i < 0 {
			break
		}
		h = h[i+1:]
	}
	return ""
}

// VisitShare returns the fraction of all modeled web visits going to the
// given set of sites (identified by rank, 1-based).
func (r *Ranking) VisitShare(ranks []int) float64 {
	var sum float64
	for _, rank := range ranks {
		if rank >= 1 && rank <= len(r.Sites) {
			sum += float64(r.Sites[rank-1].MonthlyVisits)
		}
	}
	return sum / float64(r.TotalWebVisits)
}

// WeightedSample draws k distinct sites, each chosen with probability
// proportional to its visit count, matching the paper's §6.2 protocol for
// choosing external-validation sites ("chose 100 sites to visit randomly,
// but weighted each choice according to the proportion of visits").
func (r *Ranking) WeightedSample(k int, seed int64) []*Site {
	rng := rand.New(rand.NewSource(seed))
	if k > len(r.Sites) {
		k = len(r.Sites)
	}
	weights := make([]float64, len(r.Sites))
	var total float64
	for i := range r.Sites {
		weights[i] = float64(r.Sites[i].MonthlyVisits)
		total += weights[i]
	}
	picked := make(map[int]bool, k)
	out := make([]*Site, 0, k)
	for len(out) < k {
		x := rng.Float64() * total
		idx := 0
		for ; idx < len(weights); idx++ {
			if x < weights[idx] {
				break
			}
			x -= weights[idx]
		}
		if idx >= len(weights) {
			idx = len(weights) - 1
		}
		if picked[idx] {
			continue
		}
		picked[idx] = true
		out = append(out, &r.Sites[idx])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// String summarizes the ranking.
func (r *Ranking) String() string {
	return fmt.Sprintf("alexa.Ranking{%d sites, %d total web visits/mo}", len(r.Sites), r.TotalWebVisits)
}
