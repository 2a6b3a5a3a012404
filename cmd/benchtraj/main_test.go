package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 2 3 4", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{1, 2}); q1 != 1.25 || med != 1.5 || q3 != 1.75 {
		t.Errorf("quartiles of 1, 2 = %v %v %v", q1, med, q3)
	}
}

// writeRun writes a perfbench output with the given fwd_kpps.
func writeRun(t *testing.T, dir, name string, kpps float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	body := fmt.Sprintf("host: nproc=2\nworkload=x\n"+
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"fwd_kpps":{"value":%g,"unit":"kpkt/s"}}}`+"\n", kpps)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecordAndCompare records a parent and a change row and compares
// the change against its parent: a median outside the parent's q1–q3
// is marked.
func TestRecordAndCompare(t *testing.T) {
	dir := t.TempDir()
	var runs []string
	for seed, v := range []float64{100, 101, 102, 103, 104} {
		runs = append(runs,
			writeRun(t, dir, fmt.Sprintf("parent.fibchurn.%d.out", seed+1), v),
			writeRun(t, dir, fmt.Sprintf("change.fibchurn.%d.out", seed+1), v+10))
	}
	out := filepath.Join(dir, "BENCH_7.json")
	if err := record(append([]string{"-pr", "7", "-o", out}, runs...)); err != nil {
		t.Fatal(err)
	}
	tr, err := load(out)
	if err != nil {
		t.Fatal(err)
	}
	row, ok := current(tr, "fibchurn", "change")
	if !ok || row.Label != "change" || row.Host != "host: nproc=2" || len(row.Seeds) != 5 {
		t.Fatalf("change row %+v", row)
	}
	if s := row.Metrics["fwd_kpps"]; s.Median != 112 || s.Q1 != 111 || s.Q3 != 113 || s.Unit != "kpkt/s" {
		t.Errorf("fwd_kpps spread %+v", s)
	}
	got, err := compare([]string{out})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "fwd_kpps") || !strings.Contains(got, "+9.8%  *") {
		t.Errorf("compare printed:\n%s", got)
	}
}

// recordRows writes BENCH_<pr>.json in dir with a parent and a change
// row on fibchurn, over five seeds from the given fwd_kpps upwards.
func recordRows(t *testing.T, dir string, pr int, parent, change float64) string {
	t.Helper()
	runDir := t.TempDir()
	var runs []string
	for seed := 1; seed <= 5; seed++ {
		d := float64(seed - 1)
		runs = append(runs,
			writeRun(t, runDir, fmt.Sprintf("parent.fibchurn.%d.out", seed), parent+d),
			writeRun(t, runDir, fmt.Sprintf("change.fibchurn.%d.out", seed), change+d))
	}
	out := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", pr))
	if err := record(append([]string{"-pr", fmt.Sprint(pr), "-o", out}, runs...)); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompareAgainstPreviousFile: with earlier trajectory files beside
// it, compare takes the one with the highest number below the file's
// own and reports against that file's change row, not its parent row.
func TestCompareAgainstPreviousFile(t *testing.T) {
	dir := t.TempDir()
	recordRows(t, dir, 5, 110, 110) // older: would read +0.0%
	prev := recordRows(t, dir, 6, 50, 200)
	recordRows(t, dir, 8, 110, 110) // newer: not a baseline
	got, err := compare([]string{recordRows(t, dir, 7, 100, 110)})
	if err != nil {
		t.Fatal(err)
	}
	// Medians: BENCH_6 change 202 (q1 201, q3 203), BENCH_7 change 112.
	if !strings.Contains(got, "against "+prev) || !strings.Contains(got, "202 ->          112") ||
		!strings.Contains(got, "-44.6%  *") {
		t.Errorf("compare printed:\n%s", got)
	}
}
