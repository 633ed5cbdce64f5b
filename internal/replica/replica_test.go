package replica

// Integration and property tests for the tentpole: a follower bootstraps
// from a live primary over HTTP, tails its WAL through a hostile network,
// survives kills and restarts, and — once lag reaches zero — answers every
// read exactly like the primary.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	sensormeta "repro"
	"repro/internal/query"
	"repro/internal/replica/faultnet"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/smr"
	"repro/internal/tagging"
	"repro/internal/wal"
	"repro/internal/workload"
)

// startPrimary brings up a durable primary with a small corpus behind an
// httptest server.
func startPrimary(t *testing.T, sensors int) (*sensormeta.System, *httptest.Server) {
	t.Helper()
	sys, err := sensormeta.Open(t.TempDir(), smr.DurableOptions{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	opts := workload.DefaultCorpus()
	opts.Sensors = sensors
	opts.Deployments = 8
	opts.TagsPerSensor = 2
	if _, err := workload.BuildCorpus(sys.Repo, opts); err != nil {
		t.Fatal(err)
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return sys, ts
}

// churnPrimary applies n mutations (edits, deletes, tags) and refreshes.
func churnPrimary(t *testing.T, sys *sensormeta.System, rng *rand.Rand, n int) {
	t.Helper()
	titles := sys.Repo.Wiki.PagesInNamespace("Sensor")
	for i := 0; i < n; i++ {
		title := titles[rng.Intn(len(titles))]
		switch rng.Intn(6) {
		case 0:
			sys.Repo.DeletePage(title)
		case 1:
			if _, ok := sys.Repo.Wiki.Get(title); ok {
				if err := sys.Repo.AddTag(title, fmt.Sprintf("churn-%d", rng.Intn(5)), "w"); err != nil {
					t.Fatal(err)
				}
			}
		default:
			text := fmt.Sprintf("Relocated.\n[[partOf::Deployment:Churn-%d]]\n[[calibrated::%d]]\n",
				rng.Intn(4), rng.Intn(100))
			if _, err := sys.PutPage(title, "churn", text, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// waitCaughtUp polls until the follower has applied everything the primary
// has journaled and reports itself synced.
func waitCaughtUp(t *testing.T, f *Follower, primary *sensormeta.System, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		seqLag, _, synced := f.ReplicaLag()
		// Require the derived structures (engine seq) to reach the primary
		// head too: the apply loop refreshes after each batch, so between
		// "records applied" and "refresh done" the repo seqs already agree
		// while searches still serve the previous batch's index and ranks.
		if synced && seqLag == 0 && f.System().Repo.LastSeq() == primary.Repo.LastSeq() &&
			f.System().Stats().EngineSeq == primary.Repo.LastSeq() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never caught up: follower seq %d, primary seq %d, stats %+v",
		f.System().Repo.LastSeq(), primary.Repo.LastSeq(), f.ReplicaStats())
}

// rankTol absorbs solver-level noise: primary and follower both converge
// PageRank to the default 1e-10 residual, but along different warm-start
// trajectories (same bound the repo's warm-start tests use).
const rankTol = 1e-7

// assertConverged checks the follower answers the full read surface —
// search, facets, autocomplete, recommendations, tag clouds — identically
// to the primary, modulo solver noise in the rank values.
func assertConverged(t *testing.T, primary, follower *sensormeta.System) {
	t.Helper()
	if p, f := primary.Repo.LastSeq(), follower.Repo.LastSeq(); p != f {
		t.Fatalf("seq diverged: primary %d, follower %d", p, f)
	}
	if p, f := primary.Repo.Wiki.Len(), follower.Repo.Wiki.Len(); p != f {
		t.Fatalf("page count diverged: primary %d, follower %d", p, f)
	}

	// Deterministically ordered queries (relevance and title sorts):
	// byte-identical after zeroing the rank within tolerance.
	queries := []search.Query{
		{Keywords: "temperature"},
		{Keywords: "sensor wind", Mode: search.ModeAny, Limit: 10},
		{Namespace: "Sensor", SortBy: search.SortTitle, Limit: 15, Offset: 5},
		{Filters: []search.PropertyFilter{{Property: "calibrated", Op: search.OpGreatEq, Value: "0"}}, SortBy: search.SortTitle},
	}
	for qi, q := range queries {
		want, err := primary.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := follower.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results on follower, %d on primary", qi, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if math.Abs(g.Rank-w.Rank) > rankTol {
				t.Fatalf("query %d result %d: rank %v vs %v", qi, i, g.Rank, w.Rank)
			}
			g.Rank, w.Rank = 0, 0
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("query %d result %d:\nfollower = %+v\nprimary  = %+v", qi, i, g, w)
			}
		}
	}

	// Rank-sorted output: near-tied twins may legitimately swap order, so
	// compare the match set and per-title ranks instead of positions.
	rankQ := search.Query{Keywords: "deployment", SortBy: search.SortRank}
	want, err := primary.Search(rankQ)
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.Search(rankQ)
	if err != nil {
		t.Fatal(err)
	}
	wantRanks := map[string]float64{}
	for _, r := range want {
		wantRanks[r.Title] = r.Rank
	}
	if len(got) != len(want) {
		t.Fatalf("rank query: %d results on follower, %d on primary", len(got), len(want))
	}
	for _, r := range got {
		w, ok := wantRanks[r.Title]
		if !ok {
			t.Fatalf("rank query: follower returned %q, absent on primary", r.Title)
		}
		if math.Abs(r.Rank-w) > rankTol {
			t.Fatalf("rank query: %q rank %v vs %v", r.Title, r.Rank, w)
		}
	}

	// Facet counts over the whole matching set: exact.
	facetOpts := search.ExecOptions{Facets: []string{"measures", "partof"}, CountOnly: true}
	for _, expr := range []query.Expr{query.All{}, query.Keyword{Text: "temperature"}} {
		want, err := primary.Query(expr, facetOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := follower.Query(expr, facetOpts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Matched != want.Matched || !reflect.DeepEqual(got.Facets, want.Facets) {
			t.Fatalf("facets diverge: %v/%d vs %v/%d", got.Facets, got.Matched, want.Facets, want.Matched)
		}
	}

	// Autocomplete: weights are term counts, exact.
	for _, prefix := range []string{"Sensor:", "temp", "Deployment:"} {
		if got, want := follower.Autocomplete(prefix, 10), primary.Autocomplete(prefix, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("autocomplete %q: %+v vs %+v", prefix, got, want)
		}
	}

	// Recommendations: scores are sums over PageRank values, so compare
	// the full candidate set with the rank tolerance (k beyond the corpus
	// size so no near-tie at a cutoff can flake the set comparison).
	seeds := primary.Repo.Wiki.PagesInNamespace("Sensor")[:3]
	wantRec := primary.Recommender.Recommend(seeds, "", 1000)
	gotRec := follower.Recommender.Recommend(seeds, "", 1000)
	if len(gotRec) != len(wantRec) {
		t.Fatalf("recommendations: %d on follower, %d on primary", len(gotRec), len(wantRec))
	}
	wantByTitle := map[string]int{}
	for i, r := range wantRec {
		wantByTitle[r.Title] = i
	}
	for _, g := range gotRec {
		i, ok := wantByTitle[g.Title]
		if !ok {
			t.Fatalf("recommendation %q absent on primary", g.Title)
		}
		w := wantRec[i]
		if math.Abs(g.Score-w.Score) > rankTol {
			t.Fatalf("recommendation %q: score %v vs %v", g.Title, g.Score, w.Score)
		}
		if !reflect.DeepEqual(g.Shared, w.Shared) {
			t.Fatalf("recommendation %q: shared %v vs %v", g.Title, g.Shared, w.Shared)
		}
	}

	// Tag clouds: deterministic from tag data; only the clique solver's
	// step counter may differ.
	wantCloud, err := primary.TagCloud(tagging.CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	gotCloud, err := follower.TagCloud(tagging.CloudOptions{UsePivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCloud.Cliques, wantCloud.Cliques) || !reflect.DeepEqual(gotCloud.Entries, wantCloud.Entries) {
		t.Fatal("tag cloud diverges from primary")
	}
}

// fastCfg returns a follower config tuned for tests: short polls, tight
// backoff, quick timeouts.
func fastCfg(t *testing.T, primaryURL, dir string) Config {
	return Config{
		PrimaryURL:   primaryURL,
		Dir:          dir,
		Durable:      smr.DurableOptions{Fsync: wal.SyncNever},
		Backoff:      Backoff{Base: time.Millisecond, Max: 25 * time.Millisecond},
		PollWait:     100 * time.Millisecond,
		FetchTimeout: 5 * time.Second,
		Logf:         t.Logf,
	}
}

// TestFollowerConvergesUnderFaultInjection is the acceptance test for the
// hostile-network contract: with 20% of requests dropped, 20% stalled, and
// a sprinkle of 5xx bursts and truncated chunks, a follower starting from
// an empty directory still bootstraps, streams the churn, and converges to
// the primary's exact read behavior.
func TestFollowerConvergesUnderFaultInjection(t *testing.T) {
	primary, ts := startPrimary(t, 60)

	net := faultnet.New(7, 0.20, 0.20, 0.05, 0.10)
	net.StallFor = 10 * time.Millisecond
	cfg := fastCfg(t, ts.URL, t.TempDir())
	cfg.HTTP = &http.Client{Transport: net}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.System().Refresh(); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()

	churnPrimary(t, primary, rand.New(rand.NewSource(41)), 30)
	waitCaughtUp(t, f, primary, 60*time.Second)
	assertConverged(t, primary, f.System())

	// A faulted poll after convergence can leave the follower "retrying"
	// until its next successful poll; wait for it to stream again.
	st := f.ReplicaStats().(Stats)
	for deadline := time.Now().Add(10 * time.Second); st.State != "streaming"; st = f.ReplicaStats().(Stats) {
		if time.Now().After(deadline) {
			t.Fatalf("follower not streaming 10s after convergence: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Bootstraps < 1 || !st.Synced {
		t.Fatalf("follower stats after convergence: %+v", st)
	}
	if net.Drops.Load() == 0 && net.Stalls.Load() == 0 && net.Errors.Load() == 0 {
		t.Fatalf("fault injection never fired (requests %d)", net.Requests.Load())
	}
	t.Logf("faults survived: %d drops, %d stalls, %d 503s, %d truncations over %d requests (%d retries, %d bootstraps)",
		net.Drops.Load(), net.Stalls.Load(), net.Errors.Load(), net.Truncations.Load(),
		net.Requests.Load(), st.Retries, st.Bootstraps)

	cancel()
	if err := <-runDone; err != nil && err != context.Canceled {
		t.Fatalf("Run returned %v", err)
	}
}

// TestFollowerKillRestartByteIdentical is the randomized kill/restart
// property test: the follower is torn down mid-stream at random points
// while the primary keeps writing, restarted against the same directory
// each time (local WAL recovery + resume from the last applied seq), and
// must reconverge to byte-identical reads once lag reaches zero.
func TestFollowerKillRestartByteIdentical(t *testing.T) {
	primary, ts := startPrimary(t, 50)
	rng := rand.New(rand.NewSource(53))
	dir := t.TempDir()

	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		f, err := Open(ctx, fastCfg(t, ts.URL, dir))
		if err != nil {
			cancel()
			t.Fatalf("round %d: %v", round, err)
		}
		if err := f.System().Refresh(); err != nil {
			t.Fatal(err)
		}
		runDone := make(chan error, 1)
		go func() { runDone <- f.Run(ctx) }()

		churnPrimary(t, primary, rng, 10+rng.Intn(10))
		if round == 3 {
			// Final round: let it fully catch up before the comparison.
			waitCaughtUp(t, f, primary, 60*time.Second)
			assertConverged(t, primary, f.System())
		} else {
			// Kill mid-stream at a random point.
			time.Sleep(time.Duration(rng.Intn(120)) * time.Millisecond)
		}
		cancel()
		if err := <-runDone; err != nil && err != context.Canceled {
			t.Fatalf("round %d: Run returned %v", round, err)
		}
		followerSeq := f.System().Repo.LastSeq()
		if err := f.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		if followerSeq > primary.Repo.LastSeq() {
			t.Fatalf("round %d: follower seq %d ahead of primary %d", round, followerSeq, primary.Repo.LastSeq())
		}
	}
}

// TestFollowerServesThroughServer wires a real follower behind the HTTP
// server the way cmd/smr-server does and checks the whole degradation
// story end to end: lag header on reads, 403 for writes, 503 past the
// configured lag threshold, admin stats always reachable.
func TestFollowerServesThroughServer(t *testing.T) {
	primary, ts := startPrimary(t, 30)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := Open(ctx, fastCfg(t, ts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.System().Refresh(); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()
	waitCaughtUp(t, f, primary, 30*time.Second)

	fsrv := server.NewWithOptions(f.System(), server.Options{
		Replica:   f,
		MaxLagSeq: 1000, // effectively: must have synced at least once
	})
	defer fsrv.Close()
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	// Reads flow, stamped with the lag header.
	resp, err := http.Get(fts.URL + "/api/search?q=temperature")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower read: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Replica-Lag-Seq") == "" {
		t.Fatal("follower read missing X-Replica-Lag-Seq")
	}

	// Writes bounce with the structured read-only envelope, which names
	// the primary the follower streams from.
	wresp, err := http.Post(fts.URL+"/api/pages", "application/json",
		nil)
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Primary string `json:"primary"`
		} `json:"error"`
	}
	derr := json.NewDecoder(wresp.Body).Decode(&envelope)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower write: %d, want 403", wresp.StatusCode)
	}
	if derr != nil || envelope.Error.Code != "read_only" || envelope.Error.Primary != ts.URL {
		t.Fatalf("follower write envelope %+v (%v), want read_only naming %s", envelope, derr, ts.URL)
	}

	// A write on the primary shows up on the follower's read API.
	if _, err := primary.PutPage("Sensor:E2E-1", "t", "[[measures::snowfall]] end to end", ""); err != nil {
		t.Fatal(err)
	}
	if err := primary.Refresh(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, primary, 30*time.Second)
	if _, ok := f.System().Repo.Wiki.Get("Sensor:E2E-1"); !ok {
		t.Fatal("replicated page missing on follower")
	}

	cancel()
	if err := <-runDone; err != nil && err != context.Canceled {
		t.Fatalf("Run returned %v", err)
	}
}
