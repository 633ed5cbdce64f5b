// Package geo provides the positional substrate behind the map-based
// browsing of metadata pages: coordinates, haversine distances, bounding
// boxes for viewport queries, and grid-based marker clustering (the
// "(clustered) maps" of the paper's Fig. 2), replacing the Google Maps API
// of the original deployment.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// Point is a WGS84 coordinate.
type Point struct {
	Lat, Lon float64
}

// Valid reports whether the coordinate is in range.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// String renders "lat,lon" with 5 decimals (≈1 m resolution).
func (p Point) String() string { return fmt.Sprintf("%.5f,%.5f", p.Lat, p.Lon) }

// BBox is a latitude/longitude bounding box (no antimeridian wrapping —
// the Swiss Experiment never crosses it).
type BBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// Contains reports whether the point lies inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Extend grows the box to include the point.
func (b BBox) Extend(p Point) BBox {
	if b.MinLat == 0 && b.MaxLat == 0 && b.MinLon == 0 && b.MaxLon == 0 {
		return BBox{MinLat: p.Lat, MaxLat: p.Lat, MinLon: p.Lon, MaxLon: p.Lon}
	}
	out := b
	out.MinLat = math.Min(out.MinLat, p.Lat)
	out.MaxLat = math.Max(out.MaxLat, p.Lat)
	out.MinLon = math.Min(out.MinLon, p.Lon)
	out.MaxLon = math.Max(out.MaxLon, p.Lon)
	return out
}

// BoundsOf computes the bounding box of a marker set (zero box when empty).
func BoundsOf(markers []Marker) BBox {
	var b BBox
	for i, m := range markers {
		if i == 0 {
			b = BBox{MinLat: m.At.Lat, MaxLat: m.At.Lat, MinLon: m.At.Lon, MaxLon: m.At.Lon}
			continue
		}
		b = b.Extend(m.At)
	}
	return b
}

// Marker is one map marker: a page at a position with a match degree in
// [0, 1] (the paper colours markers by "the degree of matching of each
// result with respect to given join predicates").
type Marker struct {
	ID    string
	At    Point
	Match float64
}

// Cluster is a group of nearby markers.
type Cluster struct {
	Center   Point
	Members  []Marker // sorted by ID
	AvgMatch float64
}

// ClusterMarkers groups markers into cells of cellDegrees × cellDegrees and
// merges each non-empty cell into one cluster (centroid position, mean
// match). Clusters come back sorted by latitude then longitude then first
// member, so output is deterministic. cellDegrees <= 0 yields one cluster
// per marker, and so does a cell so small that a marker's grid index is
// out of range.
func ClusterMarkers(markers []Marker, cellDegrees float64) []Cluster {
	type cell struct{ r, c int }
	keys := make([]cell, len(markers))
	grid := cellDegrees > 0
	for i := 0; grid && i < len(markers); i++ {
		r, okR := gridIndex(markers[i].At.Lat, cellDegrees)
		c, okC := gridIndex(markers[i].At.Lon, cellDegrees)
		keys[i], grid = cell{r, c}, okR && okC
	}
	if !grid {
		out := make([]Cluster, len(markers))
		sorted := append([]Marker(nil), markers...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
		for i, m := range sorted {
			out[i] = Cluster{Center: m.At, Members: []Marker{m}, AvgMatch: m.Match}
		}
		sort.Slice(out, func(i, j int) bool { return clusterLess(out[i], out[j]) })
		return out
	}
	buckets := make(map[cell][]Marker)
	for i, m := range markers {
		buckets[keys[i]] = append(buckets[keys[i]], m)
	}
	var out []Cluster
	for _, members := range buckets {
		sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
		var latSum, lonSum, matchSum float64
		for _, m := range members {
			latSum += m.At.Lat
			lonSum += m.At.Lon
			matchSum += m.Match
		}
		n := float64(len(members))
		out = append(out, Cluster{
			Center:   Point{Lat: latSum / n, Lon: lonSum / n},
			Members:  members,
			AvgMatch: matchSum / n,
		})
	}
	sort.Slice(out, func(i, j int) bool { return clusterLess(out[i], out[j]) })
	return out
}

// maxGridIndex bounds a grid coordinate: past 2^53 a float64 quotient no
// longer tells neighbouring cells apart, and past the int range converting
// it to int is undefined.
const maxGridIndex = 1 << 53

// gridIndex returns the grid row or column holding a coordinate, or false
// when the quotient is out of range (a tiny cell, or an infinite quotient).
func gridIndex(deg, cellDegrees float64) (int, bool) {
	q := math.Floor(deg / cellDegrees)
	if !(math.Abs(q) <= maxGridIndex) {
		return 0, false
	}
	return int(q), true
}

func clusterLess(a, b Cluster) bool {
	if a.Center.Lat != b.Center.Lat {
		return a.Center.Lat < b.Center.Lat
	}
	if a.Center.Lon != b.Center.Lon {
		return a.Center.Lon < b.Center.Lon
	}
	if len(a.Members) > 0 && len(b.Members) > 0 {
		return a.Members[0].ID < b.Members[0].ID
	}
	return len(a.Members) < len(b.Members)
}

// FilterInBox returns markers inside the box, preserving order.
func FilterInBox(markers []Marker, box BBox) []Marker {
	var out []Marker
	for _, m := range markers {
		if box.Contains(m.At) {
			out = append(out, m)
		}
	}
	return out
}
