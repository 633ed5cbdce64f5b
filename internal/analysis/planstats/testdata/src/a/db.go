package a

// deleteWhere is a write path that scans for its victims instead of
// looking them up through an index; db.go is not on the allowlist.
func deleteWhere(t *Table, match func(int) bool) []int64 {
	var ids []int64
	t.Scan(func(id int64, row int) bool { // want `direct Table.Scan outside plan execution`
		if match(row) {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}
