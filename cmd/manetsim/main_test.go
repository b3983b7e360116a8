package main

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mccls/manet"
)

func TestParseSpeeds(t *testing.T) {
	got, err := parseList("1, 5,10.5", "speed", 0, parseFloat)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 5, 10.5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParseSpeedsRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"malformed":    "1,x",
		"zero":         "0,5",
		"negative":     "-3",
		"duplicate":    "5,10,5",
		"dup-spacing":  "5, 5",
		"empty-item":   "1,,2",
		"all-negative": "-1,-5",
	}
	for name, input := range cases {
		if _, err := parseList(input, "speed", 0, parseFloat); err == nil {
			t.Fatalf("%s: accepted %q", name, input)
		}
	}
}

func TestRunRequiresFigureSelection(t *testing.T) {
	if err := run(nil, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("no -fig/-all accepted")
	}
	if err := run([]string{"-fig", strconv.Itoa(len(manet.Figures) + 1)}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("out-of-range -fig accepted")
	}
	if err := run([]string{"-fig", "1", "-speeds", "5,5"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("duplicate speeds accepted")
	}
	if err := run([]string{"-fig", "7", "-churn", "0,-1"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("negative churn accepted")
	}
	if err := run([]string{"-fig", "1", "-nodes", "1"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("one-node -nodes accepted")
	}
	if err := run([]string{"-fig", "1", "-nodes", "-20"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("negative -nodes accepted")
	}
	if err := run([]string{"-fig", "1", "-flows", "-1"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("negative -flows accepted")
	}
	if err := run([]string{"-fig", "1", "-repeats", "-1", "-speeds", "5", "-duration", "5s"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("negative -repeats accepted")
	}
	if err := run([]string{"-fig", "1", "-repeats", "1", "-speeds", "5", "-duration", "-5s"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("negative -duration accepted")
	}
	if err := run([]string{"-fig", "9", "-citynodes", "1,50"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("sub-minimum city node count accepted")
	}
}

// TestRunDefaultsAreTheFigures pins that a run with none of -duration,
// -speeds, -churn, -citynodes, -nodes or -flows hands every figure the zero
// SweepConfig Base and Axis, so each runs at its own scale (300 s, 900 s for
// figures 7-8) — the scale its checked-in CSV was generated at.
func TestRunDefaultsAreTheFigures(t *testing.T) {
	defer func(f func(string, manet.SweepConfig) (manet.Figure, error)) { runFigure = f }(runFigure)
	var ids []string
	runFigure = func(id string, cfg manet.SweepConfig) (manet.Figure, error) {
		ids = append(ids, id)
		if !reflect.ValueOf(cfg.Base).IsZero() || cfg.Axis != nil {
			t.Errorf("%s: Base %+v, Axis %v; want both zero", id, cfg.Base, cfg.Axis)
		}
		return manet.Figure{ID: id}, nil
	}
	if err := run([]string{"-all", "-csv"}, new(strings.Builder), new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(manet.Figures) {
		t.Fatalf("ran %v, want all %d figures", ids, len(manet.Figures))
	}
}

func TestParseNodes(t *testing.T) {
	got, err := parseList("100, 500,2000", "node count", 1, strconv.Atoi)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{100, 500, 2000}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for name, input := range map[string]string{
		"malformed": "100,x",
		"one-node":  "1",
		"zero":      "0,100",
		"negative":  "-100",
		"duplicate": "100,100",
	} {
		if _, err := parseList(input, "node count", 1, strconv.Atoi); err == nil {
			t.Fatalf("%s: accepted %q", name, input)
		}
	}
}

// TestRunFig9EndToEnd drives the CLI through a tiny city-scale sweep and
// checks the CSV carries the nodes axis.
func TestRunFig9EndToEnd(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{
		"-fig", "9",
		"-duration", "10s",
		"-citynodes", "20,30",
		"-repeats", "2",
		"-parallel", "4",
		"-csv",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "nodes,AODV,AODV ci95,McCLS,McCLS ci95\n") {
		t.Fatalf("unexpected CSV header:\n%s", out)
	}
	if !strings.Contains(out, "\n20,") || !strings.Contains(out, "\n30,") {
		t.Fatalf("nodes axis rows missing:\n%s", out)
	}
}

func TestParseChurn(t *testing.T) {
	got, err := parseList("0, 2,4", "churn count", -1, strconv.Atoi)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for name, input := range map[string]string{
		"malformed": "1,x",
		"negative":  "-1",
		"duplicate": "2,2",
		"float":     "1.5",
	} {
		if _, err := parseList(input, "churn count", -1, strconv.Atoi); err == nil {
			t.Fatalf("%s: accepted %q", name, input)
		}
	}
}

// TestRunFig7EndToEnd drives the CLI through the resilience figure on a
// tiny churn sweep and checks the CSV carries the churn axis and ci95
// columns.
func TestRunFig7EndToEnd(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{
		"-fig", "7",
		"-duration", "10s",
		"-churn", "0,1",
		"-repeats", "2",
		"-parallel", "4",
		"-csv",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "churn,AODV,AODV ci95,McCLS,McCLS ci95\n") {
		t.Fatalf("unexpected CSV header:\n%s", out)
	}
	if !strings.Contains(out, "\n0,") || !strings.Contains(out, "\n1,") {
		t.Fatalf("churn axis rows missing:\n%s", out)
	}
}

// TestRunFig6EndToEnd drives the CLI through the DSR extension figure on a
// tiny parallel sweep, checking the rendered table, its footer and the
// progress trace.
func TestRunFig6EndToEnd(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{
		"-fig", "6",
		"-duration", "10s",
		"-speeds", "5",
		"-repeats", "2",
		"-parallel", "4",
		"-progress",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "figDSR") || !strings.Contains(out, "McCLS-DSR rushing") {
		t.Fatalf("figure table missing:\n%s", out)
	}
	if !strings.Contains(out, "±") {
		t.Fatalf("rendered figure missing confidence intervals:\n%s", out)
	}
	// 4 curves × 1 speed × 2 repeats = 8 trials, counted in the footer and
	// traced to stderr with their event counts.
	if !strings.Contains(out, "8 trials on 4 workers)") {
		t.Fatalf("table footer missing:\n%s", out)
	}
	trace := stderr.String()
	if !strings.Contains(trace, "[  8/  8]") || !strings.Contains(trace, " ev/s  ok") {
		t.Fatalf("progress trace incomplete:\n%s", trace)
	}
	if strings.Contains(trace, " 0 ev ") {
		t.Fatalf("a trial reported no simulator events:\n%s", trace)
	}
}

// TestRunCSVCarriesCI checks the -csv path emits the ci95 columns.
func TestRunCSVCarriesCI(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{
		"-fig", "1", "-csv",
		"-duration", "10s", "-speeds", "5", "-repeats", "2",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(stdout.String(), "\n", 2)[0]
	if head != "speed,AODV,AODV ci95,McCLS,McCLS ci95" {
		t.Fatalf("csv header = %q", head)
	}
}

// TestRunTable1 drives -table 1 in both formats: the header, then the four
// schemes in the paper's Table 1 order with their published operation counts.
func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four schemes with real pairings")
	}
	schemes := []string{"AP", "ZWXF", "YHG", "McCLS"}
	var stdout strings.Builder
	if err := run([]string{"-table", "1", "-iters", "1", "-csv"}, &stdout, new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 5 || lines[0] != "scheme,sign_ops,verify_ops,pubkey_len,sign_ms,verify_ms" {
		t.Fatalf("unexpected CSV:\n%s", stdout.String())
	}
	for i, name := range schemes {
		if !strings.HasPrefix(lines[i+1], name+",") {
			t.Fatalf("CSV row %d = %q, want scheme %s", i+1, lines[i+1], name)
		}
	}
	if !strings.HasPrefix(lines[4], "McCLS,2s,1p+1s,1 point(s),") {
		t.Fatalf("McCLS row = %q", lines[4])
	}

	stdout.Reset()
	if err := run([]string{"-table", "1", "-iters", "1"}, &stdout, new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 8 || lines[0] != "Table 1 — Comparison of the CLS Schemes" ||
		lines[1] != "(s: scalar multiplication; p: pairing; e: exponentiation)" || lines[2] != "" ||
		!strings.HasPrefix(lines[3], "Scheme   Sign       Verify     PubKey Len") {
		t.Fatalf("unexpected table:\n%s", stdout.String())
	}
	for i, name := range schemes {
		if !strings.HasPrefix(lines[i+4], name+" ") {
			t.Fatalf("table row %d = %q, want scheme %s", i+1, lines[i+4], name)
		}
	}
}

func TestRunTable1RejectsBadInput(t *testing.T) {
	if err := run([]string{"-table", "1", "-iters", "0"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("-iters 0 accepted")
	}
	if err := run([]string{"-table", "2"}, new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("-table 2 accepted")
	}
}
