package tagging

import "math"

// CloudOptions configures tag-cloud construction.
type CloudOptions struct {
	// Threshold for the similarity matrix; zero means the paper's 50 %.
	Threshold float64
	// MaxFontSize is f_max in Eq. 6; zero means 7 (seven CSS size steps).
	MaxFontSize int
	// UsePivot selects the pivoting Bron–Kerbosch variant; the zero value
	// selects the basic variant, which exists for the ablation benchmark.
	// Both find the same cliques and differ only in the solver's
	// recursion steps (CliqueResult.RecursionSteps).
	UsePivot bool
	// MinFrequency drops tags used fewer times (0 keeps everything).
	MinFrequency int
}

func (o CloudOptions) withDefaults() CloudOptions {
	// NaN is rejected too: as a cache key it never equals itself, so it
	// would mint fresh similarity state on every call.
	if o.Threshold == 0 || math.IsNaN(o.Threshold) {
		o.Threshold = DefaultSimilarityThreshold
	}
	if o.MaxFontSize == 0 {
		o.MaxFontSize = 7
	}
	return o
}

// Entry is one rendered tag in the cloud.
type Entry struct {
	Tag            string
	Frequency      int   // t_i: number of page assignments
	Cliques        int   // c_i: number of maximal cliques containing the tag
	MaxCliqueOrder int   // ω(maxclique_i): size of its largest clique
	CliqueIDs      []int // indices into Cloud.Cliques (for colouring, Fig. 5)
	FontSize       int   // s_i from Eq. 6, clamped to [1, MaxFontSize]
}

// Cloud is a computed tag cloud. It depends only on the tag data and the
// options, never on how much of it the pipeline could reuse.
type Cloud struct {
	Entries []Entry    // sorted by tag text
	Cliques [][]string // maximal cliques as tag-name lists
}

// BuildCloud runs the full Section-IV pipeline on prepared tag data:
// similarity matrix → tag graph → maximal cliques → Eq.-6 font sizes.
func BuildCloud(td *TagData, opts CloudOptions) *Cloud {
	opts = opts.withDefaults()
	g := td.Graph(opts.Threshold)

	var cr *CliqueResult
	switch {
	case g.N() == 0:
		// Bron–Kerbosch on the empty graph would emit the empty set as a
		// "maximal clique"; an empty vocabulary has no cliques.
		cr = &CliqueResult{}
	case opts.UsePivot:
		cr = BronKerboschPivot(g)
	default:
		cr = BronKerboschBasic(g)
	}
	member := CliqueMembership(g.N(), cr.Cliques)

	// Frequency range over the retained tags.
	tmin, tmax := math.MaxInt32, 0
	for _, tag := range td.Tags {
		f := td.Frequency(tag)
		if f < opts.MinFrequency {
			continue
		}
		if f < tmin {
			tmin = f
		}
		if f > tmax {
			tmax = f
		}
	}

	cloud := &Cloud{}
	for _, c := range cr.Cliques {
		named := make([]string, len(c))
		for i, v := range c {
			named[i] = td.Tags[v]
		}
		cloud.Cliques = append(cloud.Cliques, named)
	}

	totalCliques := len(cr.Cliques)
	if totalCliques < 1 {
		totalCliques = 1 // Eq. 6: C is "always ≥ 1"
	}
	for vi, tag := range td.Tags {
		f := td.Frequency(tag)
		if f < opts.MinFrequency {
			continue
		}
		cliques := member[vi]
		maxOrder := 0
		for _, ci := range cliques {
			if n := len(cr.Cliques[ci]); n > maxOrder {
				maxOrder = n
			}
		}
		size := FontSize(f, tmin, tmax, len(cliques), maxOrder, totalCliques, opts.MaxFontSize)
		cloud.Entries = append(cloud.Entries, Entry{
			Tag:            tag,
			Frequency:      f,
			Cliques:        len(cliques),
			MaxCliqueOrder: maxOrder,
			CliqueIDs:      append([]int(nil), cliques...),
			FontSize:       size,
		})
	}
	return cloud
}

// FontSize implements the paper's Eq. 6:
//
//	s_i = ⌈ c_i·ω(maxclique_i)/C + f_max·(t_i − t_min)/(t_max − t_min) ⌉
//
// for t_i > t_min, else s_i = 1. Two production adjustments the formula
// needs to render sanely: a degenerate frequency range (t_max == t_min)
// contributes 0 rather than dividing by zero, and the result is clamped to
// [1, f_max] because the clique term can push s_i past the largest CSS size.
func FontSize(ti, tmin, tmax, ci, maxCliqueOrder, totalCliques, fmax int) int {
	if ti <= tmin {
		return 1
	}
	cliqueTerm := float64(ci*maxCliqueOrder) / float64(totalCliques)
	freqTerm := 0.0
	if tmax > tmin {
		freqTerm = float64(fmax) * float64(ti-tmin) / float64(tmax-tmin)
	}
	s := int(math.Ceil(cliqueTerm + freqTerm))
	if s < 1 {
		s = 1
	}
	if s > fmax {
		s = fmax
	}
	return s
}
