package stats

import (
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

// TestCSVFieldQuoting covers the RFC 4180 cases the repo actually
// emits: fault specs with colons (unquoted), series names with commas,
// panic messages with quotes and newlines.
func TestCSVFieldQuoting(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"noise:0.5:7", "noise:0.5:7"},
		{"a,b", `"a,b"`},
		{`say "hi"`, `"say ""hi"""`},
		{"line1\nline2", "\"line1\nline2\""},
		{"cr\rlf", "\"cr\rlf\""},
		{"", ""},
	}
	for _, c := range cases {
		if got := CSVField(c.in); got != c.want {
			t.Errorf("CSVField(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestCSVRowRoundTrip feeds hostile cells through the shared helper and
// asserts encoding/csv recovers them exactly.
func TestCSVRowRoundTrip(t *testing.T) {
	cells := []string{"noise:0.5:7", "panic: bad, very bad", "multi\nline", `q"q`, "plain"}
	var b strings.Builder
	WriteCSVRow(&b, cells...)
	row := b.String()
	got, err := csv.NewReader(strings.NewReader(row)).Read()
	if err != nil {
		t.Fatalf("encoding/csv rejects emitted row %q: %v", row, err)
	}
	if !reflect.DeepEqual(got, cells) {
		t.Fatalf("round trip changed cells:\n in  %q\n out %q", cells, got)
	}
}

// TestSeriesCSVParseable: series names containing commas (e.g. fault
// spec lists) must not shift columns.
func TestSeriesCSVParseable(t *testing.T) {
	series := []Series{
		NewSeries("clean", []float64{1, 2}),
		NewSeries("noise:0.5,stuckarm:1", []float64{3, 4}),
	}
	out := SeriesCSV("step", series)
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("SeriesCSV output does not parse: %v\n%s", err, out)
	}
	want := [][]string{
		{"step", "clean", "noise:0.5,stuckarm:1"},
		{"0", "1", "3"},
		{"1", "2", "4"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows:\n got %q\nwant %q", rows, want)
	}
}

// TestTableCSVParseable: table cells with commas and quotes survive the
// shared quoting path.
func TestTableCSVParseable(t *testing.T) {
	tb := NewTable("title", "fault", "algo")
	tb.AddRow("noise:0.5,delay:1", `DUCB "tuned"`)
	rows, err := csv.NewReader(strings.NewReader(tb.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("Table.CSV output does not parse: %v\n%s", err, tb.CSV())
	}
	last := rows[len(rows)-1]
	if want := []string{"noise:0.5,delay:1", `DUCB "tuned"`}; !reflect.DeepEqual(last, want) {
		t.Fatalf("data row = %q, want %q", last, want)
	}
}
