package lang

import (
	"fmt"
	"strconv"

	"streamdag/internal/graph"
)

// File is the parsed form of a topology file.
type File struct {
	Name  string
	Stmts []Stmt
	// Replicas are the replication annotations, both statement form
	// ("replicate segment 4") and inline form ("segment*4"), in source
	// order.  CompilePlan validates and deduplicates them.
	Replicas []ReplicaSpec
}

// ReplicaSpec marks one node for data-parallel replication into K
// replicas (see internal/replicate).
type ReplicaSpec struct {
	Node string
	K    int
	Line int
}

// Stmt is one statement: a default-buffer setting, node declarations, or
// a chain of connections.  Replication annotations (statement and inline
// forms alike) are collected in File.Replicas, not here.
type Stmt struct {
	// Exactly one of the following is meaningful.
	DefaultBuf int      // > 0 for "buffer N"
	Nodes      []string // non-empty for "node a, b"
	Chain      *Chain
	line       int
}

// Chain is group -> group -> … with per-arrow buffer overrides.
type Chain struct {
	Groups [][]string
	// Bufs[i] is the override for the arrow between Groups[i] and
	// Groups[i+1]; 0 means use the default.
	Bufs []int
}

type parser struct {
	toks []token
	pos  int
	reps []ReplicaSpec
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) expect(k tokKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, errAt(t, "expected %v, found %v %q", k, t.kind, t.text)
	}
	return t, nil
}

// ParseString parses topology source text.
func ParseString(src string) (*File, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	kw, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if kw.text != "topology" {
		return nil, errAt(kw, "expected 'topology', found %q", kw.text)
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if isReserved(name.text) {
		return nil, errAt(name, "reserved word %q cannot name a topology", name.text)
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	f := &File{Name: name.text}
	for p.peek().kind != tokRBrace {
		if p.peek().kind == tokEOF {
			return nil, errAt(p.peek(), "unterminated topology block")
		}
		st, ok, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if ok {
			f.Stmts = append(f.Stmts, st)
		}
	}
	p.next() // }
	if t := p.peek(); t.kind != tokEOF {
		return nil, errAt(t, "trailing input after topology block")
	}
	f.Replicas = p.reps
	return f, nil
}

// stmt parses one statement; ok = false for replication annotations,
// which land in parser.reps instead of the statement list.
func (p *parser) stmt() (st Stmt, ok bool, err error) {
	t := p.peek()
	switch {
	case t.kind == tokIdent && t.text == "buffer":
		p.next()
		num, err := p.expect(tokNumber)
		if err != nil {
			return Stmt{}, false, err
		}
		n, err := strconv.Atoi(num.text)
		if err != nil || n < 1 {
			return Stmt{}, false, errAt(num, "buffer capacity must be a positive integer")
		}
		return Stmt{DefaultBuf: n, line: t.line}, true, nil
	case t.kind == tokIdent && t.text == "node":
		p.next()
		var names []string
		for {
			id, err := p.decl()
			if err != nil {
				return Stmt{}, false, err
			}
			names = append(names, id)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
		return Stmt{Nodes: names, line: t.line}, true, nil
	case t.kind == tokIdent && t.text == "replicate":
		p.next()
		id, err := p.ident()
		if err != nil {
			return Stmt{}, false, err
		}
		num, err := p.expect(tokNumber)
		if err != nil {
			return Stmt{}, false, err
		}
		k, err := strconv.Atoi(num.text)
		if err != nil || k < 1 {
			return Stmt{}, false, errAt(num, "replica count must be a positive integer")
		}
		p.reps = append(p.reps, ReplicaSpec{Node: id, K: k, Line: t.line})
		return Stmt{}, false, nil
	default:
		c, err := p.chain()
		if err != nil {
			return Stmt{}, false, err
		}
		return Stmt{Chain: c, line: t.line}, true, nil
	}
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	if isReserved(t.text) {
		return "", errAt(t, "reserved word %q cannot name a node", t.text)
	}
	return t.text, nil
}

// decl parses an identifier with an optional inline replication suffix
// ("segment*4"), recording the annotation.
func (p *parser) decl() (string, error) {
	id, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.peek().kind == tokStar {
		star := p.next()
		num, err := p.expect(tokNumber)
		if err != nil {
			return "", err
		}
		k, err := strconv.Atoi(num.text)
		if err != nil || k < 1 {
			return "", errAt(num, "replica count must be a positive integer")
		}
		p.reps = append(p.reps, ReplicaSpec{Node: id, K: k, Line: star.line})
	}
	return id, nil
}

func (p *parser) group() ([]string, error) {
	if p.peek().kind == tokLParen {
		p.next()
		var names []string
		for {
			id, err := p.decl()
			if err != nil {
				return nil, err
			}
			names = append(names, id)
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return names, nil
	}
	id, err := p.decl()
	if err != nil {
		return nil, err
	}
	return []string{id}, nil
}

func (p *parser) chain() (*Chain, error) {
	first, err := p.group()
	if err != nil {
		return nil, err
	}
	c := &Chain{Groups: [][]string{first}}
	for p.peek().kind == tokArrow {
		arrow := p.next()
		buf := 0
		if p.peek().kind == tokLBrack {
			p.next()
			num, err := p.expect(tokNumber)
			if err != nil {
				return nil, err
			}
			buf, err = strconv.Atoi(num.text)
			if err != nil || buf < 1 {
				return nil, errAt(num, "channel capacity must be a positive integer")
			}
			if _, err := p.expect(tokRBrack); err != nil {
				return nil, err
			}
		}
		g, err := p.group()
		if err != nil {
			return nil, err
		}
		_ = arrow
		c.Groups = append(c.Groups, g)
		c.Bufs = append(c.Bufs, buf)
	}
	if len(c.Groups) < 2 {
		return nil, errAt(p.peek(), "expected '->' in connection statement")
	}
	return c, nil
}

// CompilePlan elaborates a parsed file into a graph: groups connect
// completely, buffers default as declared (or 1 if never declared), and
// nodes appear in declaration/first-use order.  The returned plan maps
// annotated node names to replica counts (nil when the file has no
// replication annotations); applying it is the caller's business (the
// streamdag package runs internal/replicate over it).
func CompilePlan(f *File) (*graph.Graph, map[string]int, error) {
	g := graph.New()
	defaultBuf := 0
	ensure := func(name string) graph.NodeID {
		if id, ok := g.NodeByName(name); ok {
			return id
		}
		return g.AddNode(name)
	}
	for _, st := range f.Stmts {
		switch {
		case st.DefaultBuf > 0:
			if defaultBuf > 0 {
				return nil, nil, fmt.Errorf("lang: line %d: duplicate buffer declaration", st.line)
			}
			defaultBuf = st.DefaultBuf
		case len(st.Nodes) > 0:
			for _, n := range st.Nodes {
				if _, dup := g.NodeByName(n); dup {
					return nil, nil, fmt.Errorf("lang: line %d: node %q already declared", st.line, n)
				}
				g.AddNode(n)
			}
		case st.Chain != nil:
			for i := 0; i+1 < len(st.Chain.Groups); i++ {
				buf := st.Chain.Bufs[i]
				if buf == 0 {
					buf = defaultBuf
				}
				if buf == 0 {
					buf = 1
				}
				for _, from := range st.Chain.Groups[i] {
					for _, to := range st.Chain.Groups[i+1] {
						g.AddEdge(ensure(from), ensure(to), buf)
					}
				}
			}
		}
	}
	if g.NumNodes() == 0 {
		return nil, nil, fmt.Errorf("lang: topology %q declares no nodes", f.Name)
	}
	if !g.IsDAG() {
		return nil, nil, fmt.Errorf("lang: topology %q contains a directed cycle", f.Name)
	}
	var plan map[string]int
	for _, r := range f.Replicas {
		if _, ok := g.NodeByName(r.Node); !ok {
			return nil, nil, fmt.Errorf("lang: line %d: replicate names unknown node %q", r.Line, r.Node)
		}
		if prev, dup := plan[r.Node]; dup && prev != r.K {
			return nil, nil, fmt.Errorf("lang: line %d: node %q replicated as both %d and %d",
				r.Line, r.Node, prev, r.K)
		}
		if plan == nil {
			plan = make(map[string]int)
		}
		plan[r.Node] = r.K
	}
	return g, plan, nil
}

// BuildPlan parses and compiles in one step, returning the base graph
// and the replication plan.
func BuildPlan(src string) (*graph.Graph, map[string]int, error) {
	f, err := ParseString(src)
	if err != nil {
		return nil, nil, err
	}
	return CompilePlan(f)
}
