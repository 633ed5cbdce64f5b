package geo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestPointValidAndString(t *testing.T) {
	if !(Point{46.8, 9.8}).Valid() {
		t.Error("Swiss point invalid")
	}
	for _, p := range []Point{{91, 0}, {-91, 0}, {0, 181}, {0, -181}} {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
	if got := (Point{46.8, 9.80001}).String(); got != "46.80000,9.80001" {
		t.Errorf("String = %q", got)
	}
}

func TestBBox(t *testing.T) {
	var b BBox
	b = b.Extend(Point{46, 9})
	b = b.Extend(Point{47, 8})
	if !b.Contains(Point{46.5, 8.5}) {
		t.Error("centre not contained")
	}
	if b.Contains(Point{45, 8.5}) {
		t.Error("outside point contained")
	}
}

func TestBoundsOf(t *testing.T) {
	markers := []Marker{
		{ID: "a", At: Point{46, 9}},
		{ID: "b", At: Point{47, 8}},
	}
	b := BoundsOf(markers)
	if b.MinLat != 46 || b.MaxLat != 47 || b.MinLon != 8 || b.MaxLon != 9 {
		t.Errorf("BoundsOf = %+v", b)
	}
	if got := BoundsOf(nil); got != (BBox{}) {
		t.Errorf("empty bounds = %+v", got)
	}
}

func TestClusterMarkersGrid(t *testing.T) {
	markers := []Marker{
		{ID: "a", At: Point{46.01, 9.01}, Match: 1.0},
		{ID: "b", At: Point{46.02, 9.02}, Match: 0.5},
		{ID: "c", At: Point{47.5, 8.0}, Match: 0.2},
	}
	clusters := ClusterMarkers(markers, 0.1)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %+v", clusters)
	}
	// First cluster (lower latitude) holds a and b.
	if len(clusters[0].Members) != 2 {
		t.Errorf("first cluster = %+v", clusters[0])
	}
	if math.Abs(clusters[0].AvgMatch-0.75) > 1e-12 {
		t.Errorf("avg match = %v", clusters[0].AvgMatch)
	}
	if math.Abs(clusters[0].Center.Lat-46.015) > 1e-9 {
		t.Errorf("centroid = %v", clusters[0].Center)
	}
}

func TestClusterMarkersNoGrid(t *testing.T) {
	markers := []Marker{
		{ID: "b", At: Point{47, 8}},
		{ID: "a", At: Point{46, 9}},
	}
	clusters := ClusterMarkers(markers, 0)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	for _, c := range clusters {
		if len(c.Members) != 1 {
			t.Errorf("cluster size = %d", len(c.Members))
		}
	}
}

// TestClusterMarkersTinyCell checks that a cell too small for the grid
// index clusters like cellDegrees 0 (one cluster per marker) instead of
// overflowing every marker into one cell.
func TestClusterMarkersTinyCell(t *testing.T) {
	markers := []Marker{
		{ID: "a", At: Point{46.8, 9.8}},
		{ID: "b", At: Point{46.0, 7.7}},
		{ID: "c", At: Point{47.3, 8.5}},
	}
	want := ClusterMarkers(markers, 0)
	if len(want) != 3 {
		t.Fatalf("cell 0: %d clusters, want 3", len(want))
	}
	for _, cell := range []float64{1e-9, 1e-300, 5e-324} {
		if got := ClusterMarkers(markers, cell); !reflect.DeepEqual(got, want) {
			t.Errorf("cell %g: clusters = %+v, want %+v", cell, got, want)
		}
	}
}

// Property: clustering covers every marker exactly once.
func TestClusteringPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60)
		markers := make([]Marker, n)
		for i := range markers {
			markers[i] = Marker{
				ID: string(rune('a'+i%26)) + string(rune('0'+i/26)),
				At: Point{46 + rng.Float64(), 8 + rng.Float64()},
			}
		}
		cell := rng.Float64() * 0.3
		clusters := ClusterMarkers(markers, cell)
		seen := map[string]int{}
		total := 0
		for _, c := range clusters {
			for _, m := range c.Members {
				seen[m.ID]++
				total++
			}
		}
		if total != n {
			t.Fatalf("trial %d: %d markers clustered, want %d", trial, total, n)
		}
		for id, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("trial %d: marker %s in %d clusters", trial, id, cnt)
			}
		}
	}
}

func TestFilterInBox(t *testing.T) {
	markers := []Marker{
		{ID: "in", At: Point{46.5, 8.5}},
		{ID: "out", At: Point{50, 8.5}},
	}
	box := BBox{MinLat: 46, MaxLat: 47, MinLon: 8, MaxLon: 9}
	got := FilterInBox(markers, box)
	if len(got) != 1 || got[0].ID != "in" {
		t.Errorf("FilterInBox = %+v", got)
	}
}

func TestClusterDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	markers := make([]Marker, 40)
	for i := range markers {
		markers[i] = Marker{ID: string(rune('a' + i%26)), At: Point{46 + rng.Float64(), 8 + rng.Float64()}}
	}
	a := ClusterMarkers(markers, 0.2)
	b := ClusterMarkers(markers, 0.2)
	if len(a) != len(b) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a {
		if a[i].Center != b[i].Center || len(a[i].Members) != len(b[i].Members) {
			t.Fatal("nondeterministic clusters")
		}
	}
}
