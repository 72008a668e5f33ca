package datasets

import "repro/internal/hardness"

// SplitStats are the Table 3 statistics of one benchmark split.
type SplitStats struct {
	Databases int
	AvgTables float64
	Queries   int
	Nested    int
	OrderBy   int
	GroupBy   int
	Compound  int
}

// StatsOf computes Table 3 statistics for a split of a benchmark.
func StatsOf(bench *Benchmark, items []Item) SplitStats {
	var st SplitStats
	dbSeen := map[string]bool{}
	var tables int
	for _, it := range items {
		if !dbSeen[it.DB] {
			dbSeen[it.DB] = true
			if b := bench.DBs[it.DB]; b != nil {
				tables += len(b.Schema.Tables)
			}
		}
		st.Queries++
		if hardness.HasNested(it.Gold) {
			st.Nested++
		}
		if hardness.HasOrderBy(it.Gold) {
			st.OrderBy++
		}
		if hardness.HasGroupBy(it.Gold) {
			st.GroupBy++
		}
		if hardness.IsCompound(it.Gold) {
			st.Compound++
		}
	}
	st.Databases = len(dbSeen)
	if st.Databases > 0 {
		st.AvgTables = float64(tables) / float64(st.Databases)
	}
	return st
}
