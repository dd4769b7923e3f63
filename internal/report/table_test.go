package report

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "Sample",
		Headers: []string{"A", "B"},
	}
	t.AddRow("x", 1.5)
	t.AddRow("yy", "z,w")
	t.Notes = append(t.Notes, "a note")
	return t
}

func TestRenderAligned(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Sample" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "A ") {
		t.Fatalf("header line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "--") {
		t.Fatalf("separator line = %q", lines[2])
	}
	// Column alignment: "yy" is the widest A cell, so "x" pads to width 2.
	if !strings.HasPrefix(lines[3], "x   ") {
		t.Fatalf("row line = %q", lines[3])
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatalf("missing note:\n%s", out)
	}
}

func TestMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### Sample", "| A | B |", "| --- | --- |", "| x | 1.5 |", "*a note*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if F1(228.34) != "228.3" {
		t.Fatalf("F1 = %q", F1(228.34))
	}
	if F0(16353.47) != "16353" {
		t.Fatalf("F0 = %q", F0(16353.47))
	}
	if Pct(15.62) != "15.6" {
		t.Fatalf("Pct = %q", Pct(15.62))
	}
	if Seq([]int{1, 4, 15}) != "T1,T4,T15" {
		t.Fatalf("Seq = %q", Seq([]int{1, 4, 15}))
	}
	got := DPs([]int{2, 1}, map[int]int{1: 4, 2: 0})
	if got != "P1,P5" {
		t.Fatalf("DPs = %q", got)
	}
}
