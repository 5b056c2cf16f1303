package stats

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Table X: demo", "policy", "min", "gmean")
	tab.AddRow("DUCB", "95.0", "99.1")
	tab.AddFloatRow("UCB", "%.1f", 88.6, 98.8)
	out := tab.Render()
	for _, want := range []string{"Table X: demo", "policy", "DUCB", "99.1", "UCB", "98.8", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// Numeric columns are right-aligned: the two data rows end at the same column.
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("only")
	tab.AddRow("x", "y", "z") // wider than header
	out := tab.Render()
	if !strings.Contains(out, "z") {
		t.Errorf("wide row lost: %s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("ignored", "name", "value")
	tab.AddRow("plain", "1")
	tab.AddRow(`has "quote", comma`, "2")
	csv := tab.CSV()
	if strings.Contains(csv, "ignored") {
		t.Error("CSV contains title")
	}
	if !strings.Contains(csv, "name,value\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if !strings.Contains(csv, `"has ""quote"", comma",2`) {
		t.Errorf("CSV quoting wrong: %q", csv)
	}
}

func TestLinePlot(t *testing.T) {
	s1 := NewSeries("up", []float64{0, 1, 2, 3})
	s2 := NewSeries("down", []float64{3, 2, 1, 0})
	out := LinePlot("plot", []Series{s1, s2}, 8, 40)
	for _, want := range []string{"plot", "up", "down", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("LinePlot missing %q", want)
		}
	}
	if out := LinePlot("empty", nil, 4, 10); !strings.Contains(out, "empty plot") {
		t.Errorf("empty LinePlot = %q", out)
	}
	// Constant series should not divide by zero.
	flat := NewSeries("flat", []float64{1, 1, 1})
	if out := LinePlot("", []Series{flat}, 4, 10); !strings.Contains(out, "flat") {
		t.Error("flat series plot failed")
	}
}

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Name = "x"
	s.Append(1, 2)
	s.Append(3, 4)
	if len(s.X) != 2 || s.Y[1] != 4 {
		t.Errorf("Append result: %+v", s)
	}
}

func TestSeriesCSV(t *testing.T) {
	a := NewSeries("a", []float64{1, 2})
	b := NewSeries("b", []float64{3})
	csv := SeriesCSV("t", []Series{a, b})
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[0] != "t,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,3" {
		t.Errorf("row1 = %q", lines[1])
	}
	if lines[2] != "1,2," {
		t.Errorf("row2 = %q (short series should pad)", lines[2])
	}
}
