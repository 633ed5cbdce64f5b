package viz

import (
	"fmt"
	"strings"
)

// HTMLTable renders rows as a plain HTML table (the "plain tabular formats"
// of Fig. 2). All cell content is escaped.
func HTMLTable(columns []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(`<table class="results">` + "\n<thead><tr>")
	for _, c := range columns {
		fmt.Fprintf(&b, "<th>%s</th>", esc(c))
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	for _, row := range rows {
		b.WriteString("<tr>")
		for _, cell := range row {
			fmt.Fprintf(&b, "<td>%s</td>", esc(cell))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</tbody>\n</table>\n")
	return b.String()
}
