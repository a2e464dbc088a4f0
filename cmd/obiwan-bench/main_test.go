package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obiwan/internal/bench"
)

// fastRun drives the CLI's run function at minimal scale (loopback link,
// tiny list), exercising every experiment selector end-to-end.
func fastRun(t *testing.T, exp string, csv bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, exp, true /*quick*/, csv, "loopback", 20, 64, 5, "", "", ""); err != nil {
		t.Fatalf("%s: %v", exp, err)
	}
	return buf.String()
}

func TestRunSelectors(t *testing.T) {
	for _, exp := range []string{
		"table1", "fig5curve", "fig5v6", "ablation-mode", "ablation-depth", "auto", "prefetch", "profile",
	} {
		t.Run(exp, func(t *testing.T) {
			out := fastRun(t, exp, false)
			if !strings.Contains(out, "## "+exp) {
				t.Fatalf("missing section header:\n%s", out)
			}
			if !strings.Contains(out, "points in") {
				t.Fatalf("missing point count:\n%s", out)
			}
		})
	}
}

func TestRunFig5Quick(t *testing.T) {
	out := fastRun(t, "fig5", false)
	if !strings.Contains(out, "64B step=1") {
		t.Fatalf("missing series:\n%s", out)
	}
}

func TestRunCSV(t *testing.T) {
	out := fastRun(t, "table1", true)
	if !strings.Contains(out, "experiment,series,size,step,x,total_ms") {
		t.Fatalf("missing csv header:\n%s", out)
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig99", true, false, "loopback", 0, 64, 5, "", "", ""); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	if err := run(&buf, "table1", true, false, "carrier-pigeon", 0, 64, 5, "", "", ""); err == nil {
		t.Fatal("unknown profile must fail")
	}
	if err := run(&buf, "table1,fig99", true, false, "loopback", 0, 64, 5, "", "", ""); err == nil {
		t.Fatal("a list naming an unknown experiment must fail")
	}
}

func TestRunList(t *testing.T) {
	out := fastRun(t, "auto,table1", false)
	if !strings.Contains(out, "## table1") || !strings.Contains(out, "## auto") || strings.Contains(out, "## fig4") {
		t.Fatalf("list selection:\n%s", out)
	}
}

func TestRunRendersSVG(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, "fig5v6", true, false, "loopback", 12, 64, 5, dir, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5v6.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "</svg>") {
		t.Fatal("svg incomplete")
	}
	if !strings.Contains(buf.String(), "figure:") {
		t.Fatal("figure path not reported")
	}
}

// TestRunProfileArtifacts: the profile experiment emits the two
// hot-object figures plus the flight-recorder dump as artifacts.
func TestRunProfileArtifacts(t *testing.T) {
	dir := t.TempDir()
	flight := filepath.Join(dir, "flight.txt")
	var buf bytes.Buffer
	if err := run(&buf, "profile", true, false, "loopback", 0, 64, 5, dir, flight, ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hot-objects-demands.svg", "hot-objects-bytes.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "</svg>") {
			t.Fatalf("%s incomplete", name)
		}
	}
	dump, err := os.ReadFile(flight)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "repl.fault-resolved") {
		t.Fatalf("flight dump lacks protocol events:\n%s", dump)
	}
	out := buf.String()
	if !strings.Contains(out, "obj-0") || !strings.Contains(out, "flight dump:") {
		t.Fatalf("profile output:\n%s", out)
	}
}

// TestFiguresMatchBaseline: every figure in figures/ is what renderSVG
// draws from the checked-in BENCH_paper.json, so a figure cannot go stale
// against the baseline, and the baseline's plottable experiments all have
// their figure.
func TestFiguresMatchBaseline(t *testing.T) {
	baseline, err := bench.LoadBaseline("../../BENCH_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]bench.Point{}
	for _, p := range baseline {
		name, _, _ := strings.Cut(p.Experiment, "/")
		byName[name] = append(byName[name], p)
	}
	dir := t.TempDir()
	for name, points := range byName {
		if _, err := renderSVG(dir, name, points); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	drawn, _ := filepath.Glob(filepath.Join(dir, "*.svg"))
	checked, _ := filepath.Glob("../../figures/*.svg")
	if len(drawn) == 0 || len(drawn) != len(checked) {
		t.Fatalf("baseline draws %d figures, figures/ holds %d", len(drawn), len(checked))
	}
	for _, path := range drawn {
		want, err := os.ReadFile(filepath.Join("../../figures", filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Errorf("figures/%s differs from what BENCH_paper.json draws; regenerate it (EXPERIMENTS.md, Reproducing)", filepath.Base(path))
		}
	}
}
