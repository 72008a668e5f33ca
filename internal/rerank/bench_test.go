package rerank_test

import (
	"testing"

	"repro/internal/rerank"
	"repro/internal/text"
)

// BenchmarkFeatures measures cross-pair feature extraction, the inner
// loop of second-stage re-ranking (k pairs per translated question):
// the features of a question matched into a table once, against one
// of its entries.
func BenchmarkFeatures(b *testing.B) {
	x := &rerank.Extractor{IDF: text.NewIDF([]string{"find the name of employee"})}
	const nl = "find the name of the employee who got the highest one time bonus"
	const d = "Find the name of employee regarding to employee with evaluation. Return the top one result in descending order of one bonus of the employee evaluation."
	m := x.Match(x.Prepare(nl), rerank.NewTable([]string{d}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.FeaturesAt(m, 0, nil, 0)
	}
}
