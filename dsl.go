package streamdag

import (
	"strings"

	"streamdag/internal/graph"
	"streamdag/internal/lang"
)

// BuildTopology parses src into a Topology.  It reads either text
// format: the topology language (see internal/lang for the grammar),
//
//	topology video {
//	  buffer 8
//	  capture -> segment
//	  segment -> (faces, plates, motion) ->[4] fuse
//	  fuse -> archive
//	}
//
// or the line-oriented format of internal/graph: "from to buf" triples,
// "node name", "edge from to buf", and # comments.  Source whose first
// word is the keyword "topology" is the language; anything else is
// triples.
//
// Replication annotations ("replicate segment 4", or inline
// "segment*4") are applied: the returned topology is the expanded one.
// Use BuildReplicated when you also need the replication mapping to
// carry kernels or filters across the expansion.
func BuildTopology(src string) (*Topology, error) {
	r, err := BuildReplicated(src)
	if err != nil {
		return nil, err
	}
	return r.Topology(), nil
}

// BuildReplicated parses src as BuildTopology does and applies its
// replication annotations, returning the expanded topology together
// with the kernel/filter mappings (an identity mapping for triples and
// for language source without annotations).  Sources with annotations
// must describe a valid two-terminal DAG and may not replicate its
// source or sink.
func BuildReplicated(src string) (*Replicated, error) {
	var (
		g    *graph.Graph
		plan map[string]int
		err  error
	)
	if isDSL(src) {
		g, plan, err = lang.BuildPlan(src)
	} else {
		g, err = graph.Parse(strings.NewReader(src))
	}
	if err != nil {
		return nil, err
	}
	return expand(&Topology{g: g}, plan)
}

// isDSL reports whether src is topology-language source rather than
// triples: the first word of its first non-blank, non-comment line is
// the keyword "topology" itself, so a triple naming a node
// "topology_src" stays a triple.
func isDSL(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return strings.Fields(line)[0] == "topology"
	}
	return false
}
