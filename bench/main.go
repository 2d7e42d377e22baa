// Command bench is the repository's one benchmark: six fixed workloads
// streamed through the public streamdag API, every output checked
// against the simulator oracle, end-to-end metrics measured with tracing
// off, and a separate traced run plus a layer pass for the per-layer
// metrics.  See README.md in this directory.
//
//	bash bench/run.sh -seed 1                      every workload, both kinds of run
//	bash bench/run.sh -workload tcp_chain -trace 0 one workload, end-to-end only
//	bash bench/run.sh -compare a.json b.json       judge b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// environment is the honest record of where and how a document was made.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Frozen are the per-workload constants sized at the development
	// seed for baseSeconds; Seconds scales the counts, never the rates.
	Frozen map[string]frozen `json:"frozen"`
}

type frozen struct {
	ClosedInputsPerRep int     `json:"closed_inputs_per_rep"`
	OpenRateMsgsS      float64 `json:"open_rate_msgs_s"`
	OpenSecondsPerRep  float64 `json:"open_seconds_per_rep"`
	SessionLen         int     `json:"session_len,omitempty"`
}

type workloadDoc struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]summary `json:"per_layer,omitempty"`
	Notes     map[string]string  `json:"notes,omitempty"`
	Sizes     map[string]float64 `json:"sizes,omitempty"`
}

type document struct {
	Env       environment    `json:"env"`
	Workloads []*workloadDoc `json:"workloads"`
}

func (d *document) workload(name string) *workloadDoc {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func newEnvironment(seed uint64, seconds float64) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Seed: seed, Seconds: seconds, Frozen: make(map[string]frozen),
	}
	for _, w := range workloads {
		env.Frozen[w.name] = frozen{w.inputs, w.rate, openSecs, w.sessionLen}
	}
	return env
}

// absorb folds one run's result into the workload's entry.
func (wd *workloadDoc) absorb(r *result) {
	wd.Attempted += r.Attempted
	wd.Failed += r.Failed
	wd.Failures = append(wd.Failures, r.Failures...)
	for k, v := range r.Notes {
		if wd.Notes == nil {
			wd.Notes = make(map[string]string)
		}
		wd.Notes[k] = v
	}
	for k, v := range r.Sizes {
		if wd.Sizes == nil {
			wd.Sizes = make(map[string]float64)
		}
		wd.Sizes[k] = v
	}
}

// line is the last line of standard output when one workload and one
// kind of run were asked for: the object the driver reads.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]lineMetrics `json:"metrics"`
}

type lineMetrics struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(wd *workloadDoc, defs []metricDef, got map[string]summary) (line, error) {
	l := line{Correct: wd.Failed == 0, Attempted: wd.Attempted, Failed: wd.Failed, Metrics: make(map[string]lineMetrics)}
	for _, def := range defs {
		s, ok := got[def.Name]
		if !ok {
			return l, fmt.Errorf("metric %s was not measured", def.Name)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return l, fmt.Errorf("metric %s is not finite", def.Name)
		}
		l.Metrics[def.Name] = lineMetrics{s.Value, def.Unit}
	}
	return l, nil
}

// outDir is where traces and the result document go, relative to the
// root of the checkout the command runs from.
var outDir = "bench/out"

func run(args []string, pl plan, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "drives filter hashes and payloads; 1 for development, 2 held out")
	name := fs.String("workload", "", "run one workload (default: all six)")
	seconds := fs.Float64("seconds", baseSeconds, "how long one run measures; scales the frozen input counts")
	trace := fs.Int("trace", -1, "0: end-to-end run only, 1: traced run and layer pass only (default: both)")
	cmp := fs.Bool("compare", false, "-compare a.json b.json: judge document b against base a")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result documents")
			return 2
		}
		anyWorse, err := compare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if anyWorse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: no workload %q\n", *name)
			return 2
		}
		selected = []*spec{w}
	}

	doc := &document{Env: newEnvironment(*seed, *seconds)}
	for _, w := range selected {
		wd := &workloadDoc{Name: w.name, Why: w.why}
		doc.Workloads = append(doc.Workloads, wd)
		if *trace != 1 {
			r, err := runEndToEnd(w, *seed, *seconds, pl)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			wd.EndToEnd = r.Metrics
			wd.absorb(r)
		}
		if *trace != 0 {
			r, err := runTraced(w, *seed, *seconds, pl, outDir)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			wd.PerLayer = r.Metrics
			wd.absorb(r)
			wd.PerLayer["failed_frac"] = point(float64(wd.Failed)/float64(wd.Attempted), "frac")
		}
		wd.Correct = wd.Failed == 0
	}

	data, err := json.MarshalIndent(doc, "", " ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))

	code := 0
	for _, wd := range doc.Workloads {
		if !wd.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed: %v\n", wd.Name, wd.Failed, wd.Attempted, wd.Failures)
			code = 1
		}
	}
	if len(selected) == 1 && *trace >= 0 {
		wd := doc.Workloads[0]
		defs, got := endToEnd, wd.EndToEnd
		if *trace == 1 {
			defs, got = perLayer, wd.PerLayer
		}
		l, err := resultLine(wd, defs, got)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		out, err := json.Marshal(l)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], defaultPlan, os.Stdout, os.Stderr)) }
