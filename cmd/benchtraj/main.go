// Command benchtraj keeps the benchmark trajectory: the BENCH_<pr>.json
// files that record, per change, the median and interquartile range of
// every end-to-end perfbench metric.
//
//	benchtraj record -pr N -o BENCH_N.json RUN.out...
//	benchtraj compare NEW.json
//
// record reads perfbench outputs named <label>.<workload>.<seed>.out
// (scripts/bench_record.sh writes them) and writes one row per label
// and workload: the host line of its first run, and for each metric the
// median, q1 and q3 over the seeds. compare prints each metric's change
// from the baseline to NEW's "change" row — the baseline is the
// "change" row of the previous BENCH_*.json beside NEW, or NEW's own
// "parent" row when there is none — and marks with "*" a median outside
// the baseline's q1–q3.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchtraj record -pr N -o FILE RUN.out... | benchtraj compare NEW.json")
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "record":
		err = record(args[1:])
	case "compare":
		var report string
		if report, err = compare(args[1:]); err == nil {
			fmt.Print(report)
		}
	default:
		err = fmt.Errorf("unknown command %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(1)
	}
}

// Trajectory is one BENCH_<pr>.json file.
type Trajectory struct {
	PR   int   `json:"pr"`
	Rows []Row `json:"rows"`
}

// Row is one label's (a checkout's) numbers on one workload.
type Row struct {
	Label    string            `json:"label"`
	Workload string            `json:"workload"`
	Host     string            `json:"host"`
	Seeds    []uint64          `json:"seeds"`
	Failed   int               `json:"failed_runs"`
	Metrics  map[string]Spread `json:"metrics"`
}

// Spread is one metric over a row's seeds.
type Spread struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// runResult is one perfbench run: its host line and its JSON result.
type runResult struct {
	label, workload string
	seed            uint64
	host            string
	correct         bool
	metrics         map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
}

var runName = regexp.MustCompile(`^(.+)\.(\w+)\.(\d+)\.out$`)

func readRun(path string) (runResult, error) {
	m := runName.FindStringSubmatch(filepath.Base(path))
	if m == nil {
		return runResult{}, fmt.Errorf("%s: want <label>.<workload>.<seed>.out", path)
	}
	seed, err := strconv.ParseUint(m[3], 10, 64)
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %v", path, err)
	}
	r := runResult{label: m[1], workload: m[2], seed: seed}
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if r.host == "" && strings.HasPrefix(line, "host: ") {
			r.host = line
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return r, fmt.Errorf("%s: last line is not a perfbench result: %v", path, err)
	}
	r.correct, r.metrics = res.Correct, res.Metrics
	return r, nil
}

func record(args []string) error {
	fl := flag.NewFlagSet("record", flag.ContinueOnError)
	pr := fl.Int("pr", 0, "the change's number")
	out := fl.String("o", "", "trajectory file to write")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *out == "" || fl.NArg() == 0 {
		return errors.New("record needs -o FILE and at least one run")
	}
	type key struct{ label, workload string }
	runs := map[key][]runResult{}
	var order []key
	for _, path := range fl.Args() {
		r, err := readRun(path)
		if err != nil {
			return err
		}
		k := key{r.label, r.workload}
		if runs[k] == nil {
			order = append(order, k)
		}
		runs[k] = append(runs[k], r)
	}
	tr := Trajectory{PR: *pr}
	for _, k := range order {
		rs := runs[k]
		sort.Slice(rs, func(i, j int) bool { return rs[i].seed < rs[j].seed })
		row := Row{Label: k.label, Workload: k.workload, Host: rs[0].host, Metrics: map[string]Spread{}}
		values := map[string][]float64{}
		for _, r := range rs {
			row.Seeds = append(row.Seeds, r.seed)
			if !r.correct {
				row.Failed++
			}
			for name, m := range r.metrics {
				values[name] = append(values[name], m.Value)
				s := row.Metrics[name]
				s.Unit = m.Unit
				row.Metrics[name] = s
			}
		}
		for name, vs := range values {
			s := row.Metrics[name]
			s.Q1, s.Median, s.Q3 = quartiles(vs)
			row.Metrics[name] = s
		}
		tr.Rows = append(tr.Rows, row)
	}
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(b, '\n'), 0o644)
}

// quartiles returns q1, the median and q3 of xs, each interpolated
// linearly between the closest ranks.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func load(path string) (Trajectory, error) {
	var tr Trajectory
	b, err := os.ReadFile(path)
	if err != nil {
		return tr, err
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return tr, fmt.Errorf("%s: %v", path, err)
	}
	return tr, nil
}

// previous finds the BENCH_<pr>.json beside path with the highest pr
// below pr, "" when there is none.
func previous(path string, pr int) (string, error) {
	files, err := filepath.Glob(filepath.Join(filepath.Dir(path), "BENCH_*.json"))
	best, bestPR := "", -1
	for _, f := range files {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json"))
		if err == nil && n < pr && n > bestPR {
			best, bestPR = f, n
		}
	}
	return best, err
}

// current is the row a trajectory file stands for on a workload: the
// row with the given label, else its only row on that workload.
func current(tr Trajectory, workload, label string) (Row, bool) {
	var rows []Row
	for _, r := range tr.Rows {
		if r.Workload == workload {
			if r.Label == label {
				return r, true
			}
			rows = append(rows, r)
		}
	}
	if len(rows) == 1 {
		return rows[0], true
	}
	return Row{}, false
}

// compare returns the report: per workload, each metric's median
// before and after, the change in percent, and "*" where the new median
// left the baseline's q1–q3.
func compare(args []string) (string, error) {
	if len(args) != 1 {
		return "", errors.New("compare needs NEW.json")
	}
	nw, err := load(args[0])
	if err != nil {
		return "", err
	}
	oldPath, err := previous(args[0], nw.PR)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	base := nw
	baseLabel := "parent"
	if oldPath != "" {
		if base, err = load(oldPath); err != nil {
			return "", err
		}
		baseLabel = "change"
		b.WriteString(fmt.Sprintf("%s against %s\n", args[0], oldPath))
	} else {
		// No earlier file: the change's own parent row is the baseline.
		b.WriteString(fmt.Sprintf("%s: change against its parent row\n", args[0]))
	}
	var workloads []string
	for _, r := range nw.Rows {
		if !contains(workloads, r.Workload) {
			workloads = append(workloads, r.Workload)
		}
	}
	for _, w := range workloads {
		cur, ok := current(nw, w, "change")
		old, okOld := current(base, w, baseLabel)
		if !ok || !okOld {
			b.WriteString(fmt.Sprintf("%s: no baseline row\n", w))
			continue
		}
		b.WriteString(w + "\n")
		var names []string
		for name := range cur.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := cur.Metrics[name]
			o, ok := old.Metrics[name]
			if !ok {
				b.WriteString(fmt.Sprintf("  %-16s %12.4g %-7s (new)\n", name, c.Median, c.Unit))
				continue
			}
			b.WriteString(fmt.Sprintf("  %-16s %12.4g -> %12.4g %-7s %+7.1f%%%s\n",
				name, o.Median, c.Median, c.Unit, pct(o.Median, c.Median), outside(o, c)))
		}
	}
	return b.String(), nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func pct(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return 100 * (to - from) / from
}

// outside marks a median that left the baseline's q1–q3.
func outside(base, cur Spread) string {
	if cur.Median < base.Q1 || cur.Median > base.Q3 {
		return "  *"
	}
	return ""
}
