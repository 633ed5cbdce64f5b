package a

// dumpRows serializes a table by scanning it. Snapshots store pages and
// tags and reproject the rows on restore, so persist.go is not on the
// allowlist either.
func dumpRows(t *Table) []int {
	var rows []int
	t.Scan(func(_ int64, row int) bool { // want `direct Table.Scan outside plan execution`
		rows = append(rows, row)
		return true
	})
	return rows
}
