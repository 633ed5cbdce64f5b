package sensormeta

import (
	"repro/internal/core"
	"repro/internal/recommend"
	"repro/internal/search"
	"repro/internal/tagging"
)

// The concrete implementations live under internal/; these aliases re-export
// every type an external caller needs to drive the public API, so importing
// the module root is sufficient.

// Search types.
type (
	// Query is the advanced-search input (keywords, filters, namespace,
	// sort/order, pagination, ACL principal).
	Query = search.Query
	// PropertyFilter restricts results on one annotation property.
	PropertyFilter = search.PropertyFilter
	// FilterOp is a property-filter comparison operator.
	FilterOp = search.FilterOp
	// SortKey selects the result ordering.
	SortKey = search.SortKey
	// SearchOrder is the explicit result direction.
	SearchOrder = search.Order
	// SearchResult is one scored search result.
	SearchResult = search.Result
	// Completion is one autocomplete suggestion.
	Completion = search.Completion
)

// Search constants.
const (
	OpEquals   = search.OpEquals
	OpNotEqual = search.OpNotEqual
	OpLess     = search.OpLess
	OpLessEq   = search.OpLessEq
	OpGreater  = search.OpGreater
	OpGreatEq  = search.OpGreatEq
	OpContains = search.OpContains

	SortRelevance = search.SortRelevance
	SortTitle     = search.SortTitle
	SortRank      = search.SortRank

	OrderAsc  = search.OrderAsc
	OrderDesc = search.OrderDesc
)

// Recommendation and tagging types.
type (
	// Recommendation is one proposed related page.
	Recommendation = recommend.Recommendation
	// CloudOptions configures tag-cloud construction (threshold, f_max,
	// clique algorithm, minimum frequency).
	CloudOptions = tagging.CloudOptions
	// Cloud is a computed tag cloud with cliques and Eq.-6 font sizes.
	Cloud = tagging.Cloud
)

// Combined-query types (the Fig.-1 Query Management module).
type (
	// CombinedQuery carries optional SPARQL, SQL and keyword parts that
	// AND together over page titles.
	CombinedQuery = core.CombinedQuery
	// CombinedResult is the joined output with its visualization hint.
	CombinedResult = core.Result
)
