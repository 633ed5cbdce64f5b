// Tagcloud walks Section IV of the paper on a concrete corpus: users tag
// pages, tags are folded into a cosine-similarity graph, Bron–Kerbosch
// finds the maximal cliques (the "Apple" example of Fig. 5 included), and
// Eq. 6 sizes each tag. Artefacts land in ./tagcloud_out.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	sensormeta "repro"
	"repro/internal/tagging"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	sys, err := sensormeta.New()
	if err != nil {
		log.Fatal(err)
	}

	// A small project wiki where two communities tag the same pages: a
	// fruit-research group and an instrumentation group both use "apple".
	pages := map[string]string{
		"Orchard:Trial-1":  "fruit phenology trial",
		"Orchard:Trial-2":  "fruit quality trial",
		"Lab:Imaging-1":    "computer-vision rig",
		"Lab:Imaging-2":    "spectral imaging rig",
		"Fieldsite:Valais": "orchard field site",
	}
	for title, text := range pages {
		if _, err := sys.PutPage(title, "demo", text, ""); err != nil {
			log.Fatal(err)
		}
	}
	tags := []struct{ page, tag string }{
		{"Orchard:Trial-1", "apple"}, {"Orchard:Trial-1", "pear"}, {"Orchard:Trial-1", "banana"},
		{"Orchard:Trial-2", "apple"}, {"Orchard:Trial-2", "pear"}, {"Orchard:Trial-2", "banana"},
		{"Lab:Imaging-1", "apple"}, {"Lab:Imaging-1", "mac"}, {"Lab:Imaging-1", "ipod"},
		{"Lab:Imaging-2", "apple"}, {"Lab:Imaging-2", "mac"}, {"Lab:Imaging-2", "ipod"},
		{"Fieldsite:Valais", "apple"},
	}
	for _, t := range tags {
		if err := sys.Repo.AddTag(t.page, t.tag, "demo"); err != nil {
			log.Fatal(err)
		}
	}

	// Run the pipeline twice to show the cache working.
	pipeline := tagging.NewPipeline(sys.Repo, false)
	opts := tagging.CloudOptions{Threshold: 0.5, UsePivot: true}
	cloud, err := pipeline.Cloud(opts)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pipeline.Cloud(opts); err != nil {
		log.Fatal(err)
	}
	hits, misses := pipeline.CacheStats()
	fmt.Printf("pipeline cache: %d hit(s), %d miss(es)\n\n", hits, misses)

	fmt.Printf("%d maximal cliques found in %d recursion steps:\n", len(cloud.Cliques), pipeline.Stats().RecursionSteps)
	for i, c := range cloud.Cliques {
		fmt.Printf("  clique %d: {%s}\n", i, strings.Join(c, ", "))
	}
	fmt.Println("\ntag cloud (Eq. 6 font sizes):")
	for _, e := range cloud.Entries {
		bar := strings.Repeat("#", e.FontSize)
		fmt.Printf("  %-8s freq=%d cliques=%d size=%d %s\n", e.Tag, e.Frequency, e.Cliques, e.FontSize, bar)
	}

	// The Fig. 5 observation: "apple" sits in two cliques — its meaning
	// depends on context, and the clique colouring shows it.
	for _, e := range cloud.Entries {
		if e.Tag == "apple" && e.Cliques >= 2 {
			fmt.Printf("\n'apple' belongs to %d cliques — the Fig. 5 polysemy example reproduced\n", e.Cliques)
		}
	}

	outDir := "tagcloud_out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, content := range map[string]string{
		"cloud.html":  viz.TagCloudHTML(cloud),
		"cliques.svg": viz.TagGraphSVG(cloud, 560),
	} {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	// Ablation: basic vs pivoting Bron–Kerbosch on the same data.
	td, err := pipeline.FetchTagData()
	if err != nil {
		log.Fatal(err)
	}
	basic := tagging.BronKerboschBasic(td.Graph(0.5))
	pivot := tagging.BronKerboschPivot(td.Graph(0.5))
	fmt.Printf("\nBron–Kerbosch recursion steps: basic=%d, pivoting=%d\n",
		basic.RecursionSteps, pivot.RecursionSteps)
}
