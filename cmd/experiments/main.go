// Command experiments regenerates every reproducible artefact of the
// paper's evaluation:
//
//	-fig 3a   convergence evaluation of the PageRank solvers (iterations)
//	-fig 3b   time evaluation of the PageRank solvers (milliseconds)
//	-fig 2    visualization snapshots (SVG/DOT/HTML written to -out)
//	-fig 5    the "Apple" tag-clique example (cliques printed, SVG written)
//	-fig 67   SMR bulk-load + advanced-search round trip (Sections V, Fig 6/7)
//	-fig all  everything, in order
//
// Output tables print to stdout in the layout EXPERIMENTS.md records.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	sensormeta "repro"
	"repro/internal/geo"
	"repro/internal/pagerank"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/tagging"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	fig := flag.String("fig", "all", "figure to regenerate: 3a, 3b, 2, 5, 67, all")
	outDir := flag.String("out", "out", "directory for generated artefacts")
	sizes := flag.String("sizes", "1000,5000,10000,50000", "graph sizes for fig 3")
	tol := flag.Float64("tol", 1e-10, "convergence tolerance")
	csvOut := flag.String("csv", "", "also write per-iteration residual curves (fig 3a plot data) to this CSV file")
	flag.Parse()

	var ns []int
	for _, s := range strings.Split(*sizes, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n <= 0 {
			log.Fatalf("bad size %q", s)
		}
		ns = append(ns, n)
	}

	switch *fig {
	case "3a":
		fig3(ns, *tol, true, false, *csvOut)
	case "3b":
		fig3(ns, *tol, false, true, *csvOut)
	case "2":
		fig2(*outDir)
	case "5":
		fig5(*outDir)
	case "67":
		fig67()
	case "all":
		fig3(ns, *tol, true, true, *csvOut)
		fig2(*outDir)
		fig5(*outDir)
		fig67()
	default:
		log.Fatalf("unknown figure %q", *fig)
	}
}

// fig3 reproduces the PageRank evaluation: every solver over synthetic web
// graphs, reporting convergence iterations (3a) and wall-clock time (3b).
func fig3(sizes []int, tol float64, showIters, showTime bool, csvOut string) {
	opts := pagerank.Options{Tol: tol}
	type row struct {
		n       int
		results []*pagerank.Result
	}
	var rows []row
	for _, n := range sizes {
		g, err := workload.BuildWebGraph(workload.DefaultWebGraph(n))
		if err != nil {
			log.Fatal(err)
		}
		results, err := pagerank.Compare(g, opts)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{n: n, results: results})
	}
	methods := pagerank.MethodNames()

	if showIters {
		fmt.Printf("\n== Fig 3a: convergence evaluation (matrix-vector products to residual < %.0e, c = 0.85) ==\n", tol)
		fmt.Printf("%-10s", "nodes")
		for _, m := range methods {
			fmt.Printf("%14s", m)
		}
		fmt.Println()
		for _, r := range rows {
			fmt.Printf("%-10d", r.n)
			for _, res := range r.results {
				mark := ""
				if !res.Converged {
					mark = "*"
				}
				fmt.Printf("%13d%s", res.MatVecs, pad(mark))
			}
			fmt.Println()
		}
		fmt.Println("(one Gauss-Seidel/Jacobi sweep = one matvec of work; * = hit iteration cap)")
		fmt.Println()
		fmt.Printf("%-10s  natural iterations (sweeps for stationary, steps for Krylov):\n", "")
		for _, r := range rows {
			fmt.Printf("%-10d", r.n)
			for _, res := range r.results {
				fmt.Printf("%14d", res.Iterations)
			}
			fmt.Println()
		}
	}
	if showTime {
		fmt.Printf("\n== Fig 3b: time evaluation (milliseconds to residual < %.0e) ==\n", tol)
		fmt.Printf("%-10s", "nodes")
		for _, m := range methods {
			fmt.Printf("%14s", m)
		}
		fmt.Println()
		for _, r := range rows {
			fmt.Printf("%-10d", r.n)
			for _, res := range r.results {
				fmt.Printf("%14.2f", float64(res.Elapsed)/float64(time.Millisecond))
			}
			fmt.Println()
		}
		// Winner summary, the paper's headline claim.
		fmt.Println()
		for _, r := range rows {
			bestIter, bestTime := r.results[0], r.results[0]
			for _, res := range r.results {
				if res.Converged && (!bestIter.Converged || res.Iterations < bestIter.Iterations) {
					bestIter = res
				}
				if res.Converged && (!bestTime.Converged || res.Elapsed < bestTime.Elapsed) {
					bestTime = res
				}
			}
			fmt.Printf("n=%-7d fewest iterations: %-13s fastest: %s\n",
				r.n, bestIter.Method, bestTime.Method)
		}
	}

	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		fmt.Fprintln(f, "nodes,method,iteration,residual")
		for _, r := range rows {
			for _, res := range r.results {
				for i, resid := range res.Residuals {
					fmt.Fprintf(f, "%d,%s,%d,%.6e\n", r.n, res.Method, i+1, resid)
				}
			}
		}
		fmt.Printf("\nresidual curves written to %s\n", csvOut)
	}

	// Render the Fig-3a convergence plot (largest graph size) as SVG.
	if showIters && len(rows) > 0 {
		last := rows[len(rows)-1]
		var series []viz.Series
		for _, res := range last.results {
			series = append(series, viz.Series{Name: res.Method, Points: res.Residuals})
		}
		svg := viz.LineChart(
			fmt.Sprintf("PageRank convergence, n=%d, c=0.85", last.n),
			"iteration", "residual", series, 760, 460, true)
		if err := os.MkdirAll("out", 0o755); err != nil {
			log.Fatal(err)
		}
		path := "out/fig3a_convergence.svg"
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fig 3a: convergence plot written to %s\n", path)
	}
}

func pad(mark string) string {
	if mark == "" {
		return " "
	}
	return mark
}

// fig2 regenerates the visualization snapshots over a synthetic corpus.
func fig2(outDir string) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	sys, err := sensormeta.New()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := workload.BuildCorpus(sys.Repo, workload.DefaultCorpus()); err != nil {
		log.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		log.Fatal(err)
	}

	write := func(name, content string) {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fig 2: wrote %s (%d bytes)\n", path, len(content))
	}

	// Tabular results.
	rs, err := sys.Search(search.Query{Keywords: "temperature", SortBy: search.SortRank, Limit: 20})
	if err != nil {
		log.Fatal(err)
	}
	rows := make([][]string, len(rs))
	for i, r := range rs {
		rows[i] = []string{r.Title, fmt.Sprintf("%.4f", r.Relevance), fmt.Sprintf("%.6f", r.Rank)}
	}
	write("fig2_table.html", viz.HTMLTable([]string{"page", "relevance", "rank"}, rows))

	// Bar and pie diagrams over facets.
	all, err := sys.Query(query.Namespace{Name: "Sensor"},
		search.ExecOptions{CountOnly: true, Facets: []string{"measures", "status"}})
	if err != nil {
		log.Fatal(err)
	}
	facets := all.Facets
	write("fig2_bar.svg", viz.BarChart("sensors per measurand", viz.DataFromCounts(facets["measures"]), 720, 400))
	write("fig2_pie.svg", viz.PieChart("sensor status", viz.DataFromCounts(facets["status"]), 400))

	// Clustered map with match-degree colours.
	markers := sys.Markers(rs)
	write("fig2_map.svg", viz.MapSVG(geo.ClusterMarkers(markers, 0.05), 800, 500))

	// Association graph (subset for legibility) + full DOT.
	g := sys.Repo.LinkGraph()
	write("fig2_graph.dot", viz.DOT(g, "smr"))
	small, err := sensormeta.New()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := workload.BuildCorpus(small.Repo, workload.CorpusOptions{
		Sites: 3, Deployments: 6, Sensors: 18, Seed: 7,
	}); err != nil {
		log.Fatal(err)
	}
	write("fig2_graph.svg", viz.GraphSVG(small.Repo.LinkGraph(), 900, 700))

	// Dynamic hypergraph around the best-ranked page.
	focus := sys.Ranker.TopPages(1)[0]
	write("fig2_hypergraph.svg", viz.HypergraphSVG(g, focus, 700))
	fmt.Printf("fig 2: hypergraph focused on %s\n", focus)
}

// fig5 reproduces the tag-clique example: "Apple" in two cliques.
func fig5(outDir string) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	td := tagging.NewTagData(map[string][]string{
		"apple":  {"P1", "P2", "P3", "P4"},
		"pear":   {"P1", "P2"},
		"banana": {"P1", "P2"},
		"mac":    {"P3", "P4"},
		"ipod":   {"P3", "P4"},
	})
	cloud := tagging.BuildCloud(td, tagging.CloudOptions{UsePivot: true})
	fmt.Println("\n== Fig 5: semantics of tag cliques ==")
	for i, c := range cloud.Cliques {
		fmt.Printf("clique %d (colour %s): %s\n", i, viz.Palette[i%len(viz.Palette)], strings.Join(c, ", "))
	}
	for _, e := range cloud.Entries {
		fmt.Printf("tag %-8s freq=%d cliques=%d maxCliqueOrder=%d fontSize=%d\n",
			e.Tag, e.Frequency, e.Cliques, e.MaxCliqueOrder, e.FontSize)
	}
	svg := viz.TagGraphSVG(cloud, 520)
	path := filepath.Join(outDir, "fig5_tagcliques.svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fig 5: wrote %s\n", path)
	html := viz.TagCloudHTML(cloud)
	path = filepath.Join(outDir, "fig5_tagcloud.html")
	if err := os.WriteFile(path, []byte(html), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fig 5: wrote %s\n", path)
}

// fig67 walks the Section-V demonstration flow: bulk load, then query the
// loaded metadata through the advanced search machinery.
func fig67() {
	fmt.Println("\n== Fig 6/7: bulk load + advanced search round trip ==")
	sys, err := sensormeta.New()
	if err != nil {
		log.Fatal(err)
	}
	csv := `title,locatedIn,operatedBy,category
Fieldsite:Wannengrat,,WSL,Fieldsites
Deployment:WAN-Wind,Fieldsite:Wannengrat,WSL,Deployments
Deployment:WAN-Snow,Fieldsite:Wannengrat,SLF,Deployments
`
	report, err := sys.Repo.LoadCSV(strings.NewReader(csv), "demo")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bulk load: %d rows loaded, %d skipped, %d errors\n",
		report.Loaded, report.Skipped, len(report.Errors))
	sensorsJSON := `[
	  {"title":"Sensor:WAN-W-01","partOf":"Deployment:WAN-Wind","measures":"wind speed","samplingRate":10},
	  {"title":"Sensor:WAN-S-01","partOf":"Deployment:WAN-Snow","measures":"snow height","samplingRate":600}
	]`
	report, err = sys.Repo.LoadJSON(strings.NewReader(sensorsJSON), "demo")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bulk load (json): %d rows loaded\n", report.Loaded)
	if err := sys.Refresh(); err != nil {
		log.Fatal(err)
	}

	rs, err := sys.Search(search.Query{Filters: []search.PropertyFilter{
		{Property: "measures", Op: search.OpContains, Value: "wind"},
	}})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rs {
		fmt.Printf("advanced search hit: %s (matched %v)\n", r.Title, r.Matched)
	}
	for _, c := range sys.Autocomplete("Deployment:WAN", 5) {
		fmt.Printf("autocomplete: %s\n", c.Text)
	}
	props, err := sys.Repo.Properties()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drop-down properties: %s\n", strings.Join(props, ", "))
}
