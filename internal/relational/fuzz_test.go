package relational

import "testing"

// FuzzParseSQL: Parse never panics on arbitrary input, and every statement
// it accepts gives Query on the sensors fixture the result or the error
// text the reference executor gives (checkMatchesReference). Statements
// with more than two joins or longer than 512 bytes are only parsed, which
// keeps each execution small.
func FuzzParseSQL(f *testing.F) {
	for _, seed := range []string{
		`SELECT * FROM sensors`,
		`SELECT name, altitude FROM sensors WHERE id = 3 AND active`,
		`SELECT s.name, d.site FROM sensors s LEFT JOIN deployments d ON s.deployment = d.name ORDER BY s.name DESC LIMIT 2 OFFSET 1`,
		`SELECT deployment, COUNT(*) AS n, AVG(altitude) FROM sensors GROUP BY deployment HAVING COUNT(*) > 1`,
		`SELECT DISTINCT UPPER(name) FROM sensors WHERE name LIKE 't%_0%' OR id IN (1, 2) OR deployment IS NULL`,
		`SELECT COUNT(DISTINCT deployment), -id * 2 / 0, COALESCE(NULL, 'x') FROM sensors WHERE NOT (altitude >= 2000.5)`,
		`SELECT * FROM sensors WHERE id < 3 OR name + 1 > 0 ORDER BY id LIMIT 1 OFFSET 1`,
		`SELECT name + 1 FROM sensors ORDER BY id DESC LIMIT 3`,
		`DELETE FROM sensors WHERE id = 1`,
		`INSERT INTO sensors VALUES (9, 'x', NULL, 1e3, TRUE)`,
		`SELECT 'unterminated FROM sensors`,
	} {
		f.Add(seed)
	}
	db := newSensorDB(f)
	f.Fuzz(func(t *testing.T, sql string) {
		sel, err := Parse(sql)
		if err != nil {
			return
		}
		if sel == nil {
			t.Fatalf("Parse(%q) returned neither a statement nor an error", sql)
		}
		if len(sel.Joins) > 2 || len(sql) > 512 {
			return
		}
		checkMatchesReference(t, db, sql)
	})
}
