package stats

import "strings"

// This file is the single CSV quoting path for the repo: every CSV
// emitter (Table.CSV, SeriesCSV, the telemetry aggregators) renders
// rows through WriteCSVRow, so fields containing commas, quotes, or
// newlines — fault specs, series names — always arrive quoted per
// RFC 4180 and round-trip through encoding/csv.

// CSVField returns s quoted for use as one CSV cell: unchanged when s
// contains no comma, quote, CR, or LF; otherwise wrapped in quotes with
// embedded quotes doubled.
func CSVField(s string) string {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteCSVRow appends cells to b as one comma-separated line (with
// trailing newline), quoting each cell via CSVField.
func WriteCSVRow(b *strings.Builder, cells ...string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(CSVField(c))
	}
	b.WriteByte('\n')
}
