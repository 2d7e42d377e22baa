package lang

import (
	"strings"
	"testing"

	"streamdag/internal/sp"
)

const videoSrc = `
# The §I object-recognition pipeline.
topology video {
  buffer 8
  node capture, segment
  capture -> segment
  segment -> (faces, plates, motion) ->[4] fuse
  fuse -> archive
}
`

func TestBuildVideo(t *testing.T) {
	g, _, err := BuildPlan(videoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 7 {
		t.Fatalf("nodes = %d, want 7", g.NumNodes())
	}
	if g.NumEdges() != 8 {
		t.Fatalf("edges = %d, want 8", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sp.IsSP(g) {
		t.Error("video topology should be SP")
	}
	// Buffer defaults and overrides.
	for _, e := range g.Edges() {
		from, to := g.Name(e.From), g.Name(e.To)
		switch {
		case to == "fuse":
			if e.Buf != 4 {
				t.Errorf("%s->%s buf = %d, want 4 (override)", from, to, e.Buf)
			}
		default:
			if e.Buf != 8 {
				t.Errorf("%s->%s buf = %d, want 8 (default)", from, to, e.Buf)
			}
		}
	}
}

func TestChainSugar(t *testing.T) {
	g, _, err := BuildPlan("topology p { a -> b -> c -> d }")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.NumNodes() != 4 {
		t.Fatalf("pipeline sugar: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.Buf != 1 {
			t.Errorf("default default-buffer should be 1, got %d", e.Buf)
		}
	}
}

func TestFanInFanOut(t *testing.T) {
	g, _, err := BuildPlan("topology sj { s -> (w1, w2, w3) -> j }")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6", g.NumEdges())
	}
	if g.OutDegree(g.MustNode("s")) != 3 || g.InDegree(g.MustNode("j")) != 3 {
		t.Error("fan shapes wrong")
	}
}

func TestLadderSource(t *testing.T) {
	src := `
topology lad {
  buffer 2
  X -> u1 -> u2 -> Y
  X -> v1 -> v2 -> Y
  u1 -> v1
  v2 -> u2
}
`
	g, _, err := BuildPlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if sp.IsSP(g) {
		t.Error("ladder should not be SP")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateStatement(t *testing.T) {
	g, plan, err := BuildPlan(`
topology t {
  a -> seg -> b
  replicate seg 4
}`)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("base nodes = %d, want 3 (plan is not applied by lang)", g.NumNodes())
	}
	if len(plan) != 1 || plan["seg"] != 4 {
		t.Fatalf("plan = %v, want map[seg:4]", plan)
	}
}

func TestReplicateInline(t *testing.T) {
	cases := map[string]map[string]int{
		"topology t { a -> seg*4 -> b }":                                {"seg": 4},
		"topology t { a -> (x*2, y) -> b }":                             {"x": 2},
		"topology t { node seg*3\n a -> seg -> b }":                     {"seg": 3},
		"topology t { a -> seg*2 -> b\n seg*2 -> c\n b -> d\n c -> d }": {"seg": 2}, // repeated, same k
		"topology t { a -> b }":                                         nil,
	}
	for src, want := range cases {
		_, plan, err := BuildPlan(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if len(plan) != len(want) {
			t.Errorf("%q: plan = %v, want %v", src, plan, want)
			continue
		}
		for n, k := range want {
			if plan[n] != k {
				t.Errorf("%q: plan[%s] = %d, want %d", src, n, plan[n], k)
			}
		}
	}
}

func TestReplicateErrors(t *testing.T) {
	cases := map[string]string{
		"unknown node":   "topology t { a -> b\n replicate c 4 }",
		"zero count":     "topology t { a -> b\n replicate b 0 }",
		"inline zero":    "topology t { a -> b*0 }",
		"conflicting k":  "topology t { a -> seg*2 -> b\n replicate seg 3 }",
		"missing count":  "topology t { a -> b\n replicate b }",
		"reserved":       "topology t { a -> replicate }",
		"star no number": "topology t { a -> b* }",
	}
	for name, src := range cases {
		if _, _, err := BuildPlan(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing keyword":   "network x { a -> b }",
		"reserved topology": "topology buffer { a -> b }",
		"reserved node":     "topology t { node buffer }",
		"unterminated":      "topology t { a -> b",
		"trailing":          "topology t { a -> b } extra",
		"no arrow":          "topology t { a }",
		"bad buffer":        "topology t { buffer 0 }",
		"bad capacity":      "topology t { a ->[0] b }",
		"bad char":          "topology t { a @ b }",
		"lone dash":         "topology t { a - b }",
		"unclosed group":    "topology t { (a, b -> c }",
		"unclosed bracket":  "topology t { a ->[3 b }",
		"empty":             "",
	}
	for name, src := range cases {
		if _, _, err := BuildPlan(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"dup node":    "topology t { node a\nnode a\na -> b }",
		"dup buffer":  "topology t { buffer 2\nbuffer 3\na -> b }",
		"cycle":       "topology t { a -> b\nb -> a }",
		"empty block": "topology t { }",
	}
	for name, src := range cases {
		if _, _, err := BuildPlan(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestSyntaxErrorPositions(t *testing.T) {
	_, _, err := BuildPlan("topology t {\n  a -> b\n  c @ d\n}")
	serr, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("err = %T %v", err, err)
	}
	if serr.Line != 3 {
		t.Errorf("error line = %d, want 3", serr.Line)
	}
	if !strings.Contains(serr.Error(), "3:") {
		t.Errorf("Error() lacks position: %s", serr)
	}
}

func TestParseStringFile(t *testing.T) {
	f, err := ParseString(videoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "video" {
		t.Errorf("Name = %q", f.Name)
	}
	if len(f.Stmts) != 5 {
		t.Errorf("stmts = %d, want 5", len(f.Stmts))
	}
}

func TestComments(t *testing.T) {
	g, _, err := BuildPlan("# header\ntopology t { # inline\n a -> b # trailing\n }")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Error("comment handling broke parsing")
	}
}
