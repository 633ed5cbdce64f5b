// Command smr-tags runs the dynamic tagging pipeline over a synthetic
// corpus and prints the tag cloud (frequency, cliques, Eq.-6 font size per
// tag), optionally writing the HTML cloud and the clique-coloured SVG.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	sensormeta "repro"
	"repro/internal/tagging"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	sensors := flag.Int("sensors", 400, "demo corpus size")
	threshold := flag.Float64("threshold", 0.5, "cosine similarity threshold")
	minFreq := flag.Int("minfreq", 0, "drop tags with fewer uses")
	basic := flag.Bool("basic", false, "use the non-pivoting Bron-Kerbosch variant")
	htmlOut := flag.String("html", "", "write the HTML tag cloud here")
	svgOut := flag.String("svg", "", "write the clique-coloured tag graph SVG here")
	annotations := flag.Bool("annotations", true, "treat metadata property values as tags")
	flag.Parse()

	sys, err := sensormeta.New()
	if err != nil {
		log.Fatal(err)
	}
	opts := workload.DefaultCorpus()
	opts.Sensors = *sensors
	if _, err := workload.BuildCorpus(sys.Repo, opts); err != nil {
		log.Fatal(err)
	}
	sys.Tags = tagging.NewPipeline(sys.Repo, *annotations)

	cloud, err := sys.TagCloud(tagging.CloudOptions{
		Threshold:    *threshold,
		MinFrequency: *minFreq,
		UsePivot:     !*basic,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d tags, %d maximal cliques, %d clique-solver recursion steps\n\n",
		len(cloud.Entries), len(cloud.Cliques), sys.Tags.Stats().RecursionSteps)
	fmt.Printf("%-22s %6s %8s %10s %9s\n", "tag", "freq", "cliques", "max-order", "fontsize")
	for _, e := range cloud.Entries {
		fmt.Printf("%-22s %6d %8d %10d %9d\n", e.Tag, e.Frequency, e.Cliques, e.MaxCliqueOrder, e.FontSize)
	}
	if len(cloud.Cliques) > 0 {
		fmt.Println("\ncliques:")
		for i, c := range cloud.Cliques {
			fmt.Printf("  %2d: %s\n", i, strings.Join(c, ", "))
		}
	}

	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, []byte(viz.TagCloudHTML(cloud)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *htmlOut)
	}
	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(viz.TagGraphSVG(cloud, 640)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
}
