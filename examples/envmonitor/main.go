// Envmonitor reproduces the paper's motivating scenario end to end: an
// environmental-monitoring federation (the Swiss Experiment) bulk-loads
// sensor metadata, researchers run advanced searches with structured
// filters, browse results on a clustered map, and read facet charts —
// the full Fig. 2 visualization set written to ./envmonitor_out.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	sensormeta "repro"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	sys, err := sensormeta.New()
	if err != nil {
		log.Fatal(err)
	}

	// A federation-sized corpus: 12 alpine sites, 60 deployments, 600
	// sensors, each page annotated and positioned.
	opts := workload.DefaultCorpus()
	opts.Sensors = 600
	stats, err := workload.BuildCorpus(sys.Repo, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d pages (%d sites, %d deployments, %d sensors)\n",
		stats.Pages, stats.Sites, stats.Deployments, stats.Sensors)

	// A researcher's question: active wind sensors, most authoritative
	// first (PageRank-fused ordering).
	alpha := 0.5
	q := search.Query{
		Keywords: "wind",
		Filters: []search.PropertyFilter{
			{Property: "status", Op: search.OpEquals, Value: "active"},
		},
		Namespace: "Sensor",
		Limit:     15,
		Alpha:     &alpha,
	}
	results, err := sys.Search(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nactive wind sensors (%d):\n", len(results))
	for i, r := range results {
		if i == 5 {
			fmt.Printf("  … and %d more\n", len(results)-5)
			break
		}
		fmt.Printf("  %-28s rel %.3f rank %.5f\n", r.Title, r.Relevance, r.Rank)
	}

	outDir := "envmonitor_out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	write := func(name, content string) {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	// Clustered map of the matching sensors, coloured by match degree.
	markers := sys.Markers(results)
	clusters := geo.ClusterMarkers(markers, 0.05)
	fmt.Printf("\n%d markers in %d clusters\n", len(markers), len(clusters))
	write("map.svg", viz.MapSVG(clusters, 800, 500))

	// Facet charts over every sensor: what is measured, who operates what.
	allSensors, err := sys.Query(query.Namespace{Name: "Sensor"},
		search.ExecOptions{CountOnly: true, Facets: []string{"measures", "status"}})
	if err != nil {
		log.Fatal(err)
	}
	facets := allSensors.Facets
	write("measurands.svg", viz.BarChart("sensors per measurand", viz.DataFromCounts(facets["measures"]), 720, 400))
	write("status.svg", viz.PieChart("sensor status", viz.DataFromCounts(facets["status"]), 400))

	// Association graph around the top-ranked page (hypergraph browsing).
	focus := sys.Ranker.TopPages(1)[0]
	write("hypergraph.svg", viz.HypergraphSVG(sys.Repo.LinkGraph(), focus, 700))
	fmt.Printf("hypergraph focused on the best-ranked page: %s\n", focus)

	// Map browsing by bounding box: which of the results sit in the Davos
	// region?
	davos := geo.BBox{MinLat: 46.6, MaxLat: 47.0, MinLon: 9.6, MaxLon: 10.1}
	inBox := geo.FilterInBox(markers, davos)
	fmt.Printf("results in the Davos bounding box: %d\n", len(inBox))
}
