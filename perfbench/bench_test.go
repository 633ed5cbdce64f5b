package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// testSensors keeps the test corpus small; the shapes are the benchmark's.
const testSensors = 300

// requests flattens a stream to what goes over the wire.
func requests(ops []op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.class + " " + o.method + " " + o.path + " " + string(o.body)
	}
	return out
}

// TestStreamsDeterministic: two generations from one seed give identical
// inputs — corpus, static streams and ingest cycles — and another seed
// gives different ones.
func TestStreamsDeterministic(t *testing.T) {
	s1, err := searchStream(5)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := searchStream(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(requests(s1), requests(s2)) {
		t.Error("search streams from one seed differ")
	}
	s3, err := searchStream(6)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(requests(s1), requests(s3)) {
		t.Error("search streams from different seeds are identical")
	}
	if !reflect.DeepEqual(requests(structuredStream(5)), requests(structuredStream(5))) {
		t.Error("structured streams from one seed differ")
	}

	c1, err := buildCorpus(5, testSensors)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := buildCorpus(5, testSensors)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("corpora from one seed differ")
	}
	g1, err := newIngestGen(5, c1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := newIngestGen(5, c2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a, b := g1.next(), g2.next()
		if !reflect.DeepEqual(requests(append([]op{a.write, a.refresh, a.visible}, a.reads...)),
			requests(append([]op{b.write, b.refresh, b.visible}, b.reads...))) {
			t.Fatalf("ingest cycle %d differs between generations from one seed", i)
		}
	}
}

// TestQueryShareFixed: every seed's search stream holds the same number of
// queries of each BuildQueryMix shape, so no seed moves the query median
// from one latency band to another.
func TestQueryShareFixed(t *testing.T) {
	var want []int
	for _, seed := range []int64{1, 2, 3} {
		qs, err := querySet(seed)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, 5)
		for _, o := range qs {
			counts[o.shape]++
		}
		if want == nil {
			want = counts
		} else if !reflect.DeepEqual(counts, want) {
			t.Errorf("seed %d: shape counts %v, want %v", seed, counts, want)
		}
	}
}

// TestIngestDeterministic: two short ingest runs from one seed report
// identical counts and end with identical data sizes, untraced and traced,
// with every response checked.
func TestIngestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ingest workload four times")
	}
	runTwice := func(trace bool) [2]*result {
		var out [2]*result
		for i := range out {
			res, err := run(options{
				workload: "ingest", seed: 11, trace: trace, setups: 1, cycles: 6,
				sensors: testSensors, root: filepath.Join(t.TempDir(), "bench"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("run %d (trace %v): %d of %d checks failed", i, trace, res.Failed, res.Attempted)
			}
			out[i] = res
		}
		return out
	}
	same := func(name string, a, b metric) {
		t.Helper()
		if a != b {
			t.Errorf("%s: %v then %v", name, a.Value, b.Value)
		}
	}
	plain := runTwice(false)
	for _, name := range []string{"stored_bytes_per_user_byte"} {
		same(name, plain[0].Metrics[name], plain[1].Metrics[name])
	}
	same("final data_bytes", plain[0].Named["data_bytes"], plain[1].Named["data_bytes"])

	traced := runTwice(true)
	for _, name := range []string{"wal.fsyncs_per_batch", "search.pages_applied_per_refresh",
		"ranking.warm_per_refresh", "wal.bytes_per_user_byte"} {
		same(name, traced[0].Metrics[name], traced[1].Metrics[name])
	}
	same("traced final data_bytes", traced[0].Named["data_bytes"], traced[1].Named["data_bytes"])
	if v := traced[0].Metrics["search.pages_applied_per_refresh"].Value; v != ingestBatch {
		t.Errorf("search.pages_applied_per_refresh = %v, want %d", v, ingestBatch)
	}
}

// TestQuantile: the Harrell–Davis estimate of a symmetric sample's median is
// its middle value, its weights sum to one, and it rises with q.
func TestQuantile(t *testing.T) {
	var s samples
	for i := 1; i <= 101; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	if got := s.quantile(0.5); math.Abs(got-51) > 1e-6 {
		t.Errorf("median of 1..101 ms = %v, want 51", got)
	}
	same := samples{7 * time.Millisecond, 7 * time.Millisecond, 7 * time.Millisecond}
	if got := same.quantile(0.9); math.Abs(got-7) > 1e-9 {
		t.Errorf("p90 of a constant sample = %v, want 7", got)
	}
	var big samples
	for i := 1; i <= 6000; i++ {
		big = append(big, time.Duration(i)*time.Millisecond)
	}
	if got := big.quantile(0.99); math.Abs(got-0.99*6001) > 0.5 {
		t.Errorf("p99 of 1..6000 ms = %v, want about %v", got, 0.99*6001)
	}
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := s.quantile(q)
		if got <= prev || got < 1 || got > 101 {
			t.Errorf("quantile(%v) = %v after %v", q, got, prev)
		}
		prev = got
	}
}
