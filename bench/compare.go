package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// verdicts of one (workload, end-to-end metric) row.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// judge compares a new value with its base under the metric's bound.
// baseSpread is the base's inter-quartile distance as a share of its
// median: where that exceeds the bound the run cannot tell the two apart.
func judge(def metricDef, base, baseSpread, next float64) (ratio float64, verdict string) {
	if base == 0 {
		if next == 0 {
			return 1, same
		}
		return math.Inf(1), unresolved
	}
	ratio = next / base
	if baseSpread > def.Bound {
		return ratio, unresolved
	}
	gain := ratio - 1 // positive = larger
	if def.Better == lower {
		gain = -gain
	}
	switch {
	case gain < -def.Bound:
		return ratio, worse
	case gain > def.Bound:
		return ratio, better
	default:
		return ratio, same
	}
}

// compare prints one row per (workload, end-to-end metric) of two result
// documents and reports whether any row is worse.
func compare(out io.Writer, basePath, nextPath string) (anyWorse bool, err error) {
	base, err := readDocument(basePath)
	if err != nil {
		return false, err
	}
	next, err := readDocument(nextPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tbound\tverdict")
	for _, bw := range base.Workloads {
		nw := next.workload(bw.Name)
		if nw == nil || bw.EndToEnd == nil || nw.EndToEnd == nil {
			continue
		}
		for _, def := range endToEnd {
			b, n := bw.EndToEnd[def.Name], nw.EndToEnd[def.Name]
			ratio, verdict := judge(def, b.Value, b.spread(), n.Value)
			if verdict == worse {
				anyWorse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.3f (base %.6g)\t%.0f%%\t%s\n",
				bw.Name, def.Name, def.Unit, b.Value, n.Value, ratio, b.Value, 100*def.Bound, verdict)
		}
		if nw.Failed > bw.Failed {
			anyWorse = true
			fmt.Fprintf(tw, "%s\tfailed\tops\t%d\t%d\t\t0\t%s\n", bw.Name, bw.Failed, nw.Failed, worse)
		}
	}
	return anyWorse, tw.Flush()
}
