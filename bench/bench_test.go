package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go from drifting apart.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if b.RunSeconds != baseSeconds {
		t.Errorf("run_seconds = %v, the frozen counts are sized for %v", b.RunSeconds, float64(baseSeconds))
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the code has %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(def.Name) || !unit.MatchString(def.Unit) {
			t.Errorf("metric %q (unit %q) is outside the contract's alphabet", def.Name, def.Unit)
		}
		if seen[def.Name] {
			t.Errorf("metric %q is named twice", def.Name)
		}
		seen[def.Name] = true
		if def.Better != lower && def.Better != higher {
			t.Errorf("metric %q: better = %q", def.Name, def.Better)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		seen[w.name] = true
	}
	hasSetup := false
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v", def.Name, def.Bound)
		}
		hasSetup = hasSetup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// testPlan is one repetition of everything.
var testPlan = plan{closedReps: 1, setupGroup: 1, tracedReps: 1, loadgenReps: 1}

// testSeconds makes the closed loop of w about 2 000 inputs long.
func testSeconds(w *spec) string {
	s, _ := json.Marshal(baseSeconds * 2000 / float64(w.inputs))
	return string(s)
}

// runLine runs the command the way the driver does and decodes its last
// line of standard output.
func runLine(t *testing.T, w *spec, trace string) (int, line) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", testSeconds(w), "--trace", trace}, testPlan, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var l line
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\nstderr: %s", w.name, err, stderr.String())
	}
	return code, l
}

// TestEveryWorkloadEmitsEveryMetric runs each workload once, small, in
// both kinds of run and requires exactly the named metrics, each finite.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			code, l := runLine(t, w, trace)
			if code != 0 || !l.Correct || l.Failed != 0 || l.Attempted < 1 {
				t.Errorf("%s trace %s: exit %d, correct %v, %d of %d operations failed", w.name, trace, code, l.Correct, l.Failed, l.Attempted)
			}
			if len(l.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics printed, %d named", w.name, trace, len(l.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := l.Metrics[def.Name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", w.name, trace, def.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != def.Unit {
					t.Errorf("%s trace %s: metric %s = %v %s", w.name, trace, def.Name, m.Value, m.Unit)
				}
				if trace == "0" && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.name, def.Name)
				}
			}
			if trace == "1" {
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// TestDummyTraffic pins where deadlock avoidance costs traffic: more than
// one dummy per input on splitjoin_filter, none anywhere else.
func TestDummyTraffic(t *testing.T) {
	outDir = t.TempDir()
	for _, w := range workloads {
		r, err := runTraced(w, 1, baseSeconds*2000/float64(w.inputs), testPlan, "")
		if err != nil {
			t.Fatal(err)
		}
		d := r.Metrics["dummy_per_input"].Value
		if w.name == "splitjoin_filter" && d <= 1 {
			t.Errorf("splitjoin_filter: dummy_per_input = %v, want > 1", d)
		}
		if w.name != "splitjoin_filter" && d != 0 {
			t.Errorf("%s: dummy_per_input = %v, want 0", w.name, d)
		}
	}
}

// TestBrokenSinkFailsTheRun breaks every sink's count by one and requires
// failed operations and a non-zero exit, on a message workload and on the
// window workload.
func TestBrokenSinkFailsTheRun(t *testing.T) {
	outDir = t.TempDir()
	breakSinks = true
	defer func() { breakSinks = false }()
	for _, name := range []string{"chain_b1", "window_tumble"} {
		code, l := runLine(t, workloadByName(name), "0")
		if code == 0 || l.Correct || l.Failed == 0 {
			t.Errorf("%s: a broken sink passed: exit %d, correct %v, failed %d", name, code, l.Correct, l.Failed)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestStatistics(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("quartiles of powers of two = %v %v %v", q1, q2, q3)
	}
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 99: 10, 10: 1, 11: 2, 100: 10} {
		if got := percentile(asc, p); got != want {
			t.Errorf("percentile %v = %v, want %v", p, got, want)
		}
	}
	reps := make([]float64, 39)
	for i := range reps {
		reps[i] = float64(39 - i)
	}
	if hi, lo := summarizeBest(reps, "1/s", higher), summarizeBest(reps, "s", lower); hi.Value != 39 || lo.Value != 1 || hi.Median != 20 {
		t.Errorf("best of 1..39 = %v (higher), %v (lower), median %v; want 39, 1 and 20", hi.Value, lo.Value, hi.Median)
	}
	if got := slope([]float64{0, 1, 2, 3}, []float64{1, 3, 5, 7}); !near(got, 2) {
		t.Errorf("slope = %v", got)
	}
}

// TestSelfTime: a layer's self time is its span minus the union of its
// children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},  // overlaps b
		{Name: "b", Start: 30, End: 60, Parent: 0},  // union with a: [10, 60)
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to [90, 100)
		{Name: "a.child", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(spans); by["run"] != 40 || by["a"] != 25 {
		t.Errorf("self time by name = %v", by)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, thr, cpu float64) string {
		wd := &workloadDoc{Name: "chain_b1", EndToEnd: map[string]summary{}}
		for _, def := range endToEnd {
			wd.EndToEnd[def.Name] = point(1, def.Unit)
		}
		wd.EndToEnd["throughput_msgs_s"] = summary{Value: thr, Median: thr, Q1: thr * 0.99, Q3: thr * 1.01}
		// A base whose own repetitions spread wider than the bound.
		wd.EndToEnd["cpu_us_per_msg"] = summary{Value: cpu, Median: cpu, Q1: cpu * 0.5, Q3: cpu * 1.5}
		data, err := json.Marshal(document{Workloads: []*workloadDoc{wd}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 10)
	cases := []struct {
		thr     float64
		verdict string
		code    int
	}{
		{1000, same, 0}, {1040, same, 0}, {1500, better, 0}, {500, worse, 1},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", base, write("next.json", c.thr, 30)}, testPlan, &stdout, &stderr)
		if code != c.code {
			t.Errorf("throughput %v: exit %d, want %d\n%s%s", c.thr, code, c.code, stdout.String(), stderr.String())
		}
		for _, row := range strings.Split(stdout.String(), "\n") {
			switch {
			case strings.Contains(row, "throughput_msgs_s") && !strings.HasSuffix(row, c.verdict):
				t.Errorf("throughput %v: row %q, want verdict %s", c.thr, row, c.verdict)
			case strings.Contains(row, "cpu_us_per_msg") && !strings.HasSuffix(row, unresolved):
				t.Errorf("a tripled CPU cost over a base spread wider than the bound must be unresolved: %q", row)
			}
		}
	}
}
