// Command smr-search runs one advanced search against a synthetic demo
// corpus (or a bulk-load file) and prints the ranked results — a terminal
// rendition of the paper's query interface.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	sensormeta "repro"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	keywords := flag.String("q", "", "keyword query")
	filters := flag.String("filter", "", "comma-separated property:op:value filters (op: eq,ne,lt,le,gt,ge,contains)")
	expr := flag.String("expr", "", `query AST as JSON (the /api/v1/query encoding, e.g. '{"and":[{"keyword":{"text":"wind"}},{"property":{"name":"measures","op":"eq","value":"wind speed"}}]}'); overrides -q/-filter/-namespace`)
	namespace := flag.String("namespace", "", "restrict to a namespace")
	sortBy := flag.String("sort", "relevance", "sort key: relevance, title, rank")
	limit := flag.Int("limit", 10, "maximum results")
	pageSize := flag.Int("page", 0, "with -expr: walk the result set with keyset cursors, this many per page")
	alpha := flag.Float64("alpha", -1, "fuse relevance and PageRank with this alpha (0..1); negative disables")
	load := flag.String("load", "", "bulk-load a CSV file instead of the demo corpus")
	sensors := flag.Int("sensors", 300, "demo corpus size")
	recommend := flag.Bool("recommend", false, "also print recommendations from the top results")
	explainPlan := flag.Bool("explain", false, "print the executed plan tree (estimated vs actual rows) before the results")
	flag.Parse()

	sys, err := sensormeta.New()
	if err != nil {
		log.Fatal(err)
	}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		report, err := sys.Repo.LoadCSV(f, "smr-search")
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d pages from %s", report.Loaded, *load)
	} else {
		opts := workload.DefaultCorpus()
		opts.Sensors = *sensors
		if _, err := workload.BuildCorpus(sys.Repo, opts); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Refresh(); err != nil {
		log.Fatal(err)
	}

	// Structured mode: execute a query AST with the shared executor,
	// optionally walking the matching set through keyset cursors.
	if *expr != "" {
		e, err := query.Unmarshal([]byte(*expr))
		if err != nil {
			log.Fatal(err)
		}
		opts := search.ExecOptions{SortBy: search.SortKey(*sortBy), Limit: *limit, Explain: *explainPlan}
		if *pageSize > 0 {
			opts.Limit = *pageSize
		}
		page := 0
		for {
			res, err := sys.Query(e, opts)
			if err != nil {
				log.Fatal(err)
			}
			if page == 0 {
				if res.Plan != nil {
					fmt.Println(res.Plan.String())
					fmt.Println()
				}
				fmt.Printf("%d match(es)\n", res.Matched)
				fmt.Printf("%-40s %10s %12s\n", "page", "relevance", "rank")
			}
			for _, r := range res.Results {
				fmt.Printf("%-40s %10.4f %12.8f\n", r.Title, r.Relevance, r.Rank)
			}
			if *pageSize <= 0 || res.NextCursor == "" {
				return
			}
			page++
			opts.Cursor = res.NextCursor
		}
	}

	q := search.Query{
		Keywords:  *keywords,
		Namespace: *namespace,
		Limit:     *limit,
		SortBy:    search.SortKey(*sortBy),
	}
	ops := map[string]search.FilterOp{
		"eq": search.OpEquals, "ne": search.OpNotEqual, "lt": search.OpLess,
		"le": search.OpLessEq, "gt": search.OpGreater, "ge": search.OpGreatEq,
		"contains": search.OpContains,
	}
	if *filters != "" {
		for _, f := range strings.Split(*filters, ",") {
			parts := strings.SplitN(f, ":", 3)
			if len(parts) != 3 {
				log.Fatalf("filter %q is not property:op:value", f)
			}
			op, ok := ops[parts[1]]
			if !ok {
				log.Fatalf("unknown op %q", parts[1])
			}
			q.Filters = append(q.Filters, search.PropertyFilter{Property: parts[0], Op: op, Value: parts[2]})
		}
	}

	if *alpha >= 0 {
		q.Alpha = alpha
	}
	e, err := search.LegacyExpr(q)
	if err != nil {
		log.Fatal(err)
	}
	opts := search.LegacyOptions(q)
	opts.Explain = *explainPlan
	res, err := sys.Query(e, opts)
	if err != nil {
		log.Fatal(err)
	}
	if res.Plan != nil {
		fmt.Println(res.Plan.String())
		fmt.Println()
	}
	results := res.Results
	if len(results) == 0 {
		fmt.Println("no results")
		return
	}
	fmt.Printf("%-40s %10s %12s  %s\n", "page", "relevance", "rank", "matched")
	var seeds []string
	for _, r := range results {
		matched := ""
		for k, v := range r.Matched {
			matched += k + "=" + v + " "
		}
		fmt.Printf("%-40s %10.4f %12.8f  %s\n", r.Title, r.Relevance, r.Rank, matched)
		if len(seeds) < 5 {
			seeds = append(seeds, r.Title)
		}
	}
	if *recommend {
		fmt.Println("\nrecommended:")
		for _, rec := range sys.Recommend(seeds, "", 5) {
			fmt.Printf("  %-40s %.6f  shared: %s\n", rec.Title, rec.Score, strings.Join(rec.Shared, ", "))
		}
	}
}
