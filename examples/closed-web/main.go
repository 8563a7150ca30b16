// Closed web: the paper's §7.3 future work, implemented. The open-web
// survey stops at login walls; this example runs the same monkey-testing
// crawler twice over the member sites — once anonymously, once with
// credentials — and shows the standards that only exist behind logins
// (media DRM, service workers, recording: the standards the open web never
// exercises).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/crawler"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/standards"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
)

func main() {
	reg, err := webidl.Generate(42)
	if err != nil {
		log.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 200, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	bind := webapi.NewBindings(reg)

	members := 0
	for _, s := range web.Sites {
		if web.HasMembersArea(s) {
			members++
		}
	}
	fmt.Printf("generated web: %d sites, %d with members areas\n", len(web.Sites), members)
	fmt.Printf("closed-web standard pool: %v\n\n", synthweb.ClosedWebStandards())

	stdSites := func(withCreds bool) map[standards.Abbrev]int {
		cfg := crawler.DefaultConfig(42)
		cfg.Cases = []measure.Case{measure.CaseDefault}
		cfg.WithCredentials = withCreds
		res, err := pipeline.New(web, bind, pipeline.Config{Crawl: cfg}).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res.Agg.StandardSites(measure.CaseDefault)
	}

	fmt.Println("crawling anonymously (the paper's open-web scope)...")
	open := stdSites(false)
	fmt.Println("crawling with credentials (§7.3)...")
	closed := stdSites(true)

	type delta struct {
		std  standards.Abbrev
		gain int
	}
	var gains []delta
	for std, n := range closed {
		if n > open[std] {
			gains = append(gains, delta{std, n - open[std]})
		}
	}
	sort.Slice(gains, func(i, j int) bool {
		if gains[i].gain != gains[j].gain {
			return gains[i].gain > gains[j].gain
		}
		return gains[i].std < gains[j].std
	})

	fmt.Println("\nstandards visible only (or more often) behind logins:")
	fmt.Printf("%-8s %-44s %6s %6s\n", "std", "name", "open", "auth")
	for _, g := range gains {
		name := standards.MustByAbbrev(g.std).Name
		if len(name) > 44 {
			name = name[:41] + "..."
		}
		fmt.Printf("%-8s %-44s %6d %6d\n", g.std, name, open[g.std], closed[g.std])
	}
	if len(gains) == 0 {
		fmt.Println("(none — increase the site count)")
		return
	}
	fmt.Printf("\n=> the closed web exercises %d standards the open web never shows,\n", len(gains))
	fmt.Println("   confirming the paper's conjecture that logged-in functionality uses a broader feature set.")
}
