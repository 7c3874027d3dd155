package core

import (
	"fmt"
	"strings"
)

// TraceNode is one vertex of a recorded Group-Coverage execution tree
// (the trees of Figures 3 and 4 in the paper).
type TraceNode struct {
	// B and E delimit the node's half-open index range.
	B, E int
	// ParentB/ParentE identify the parent range; HasParent is false
	// for roots.
	ParentB, ParentE int
	HasParent        bool
	// Answer is the (possibly inferred) set-query answer.
	Answer bool
	// Inferred marks answers deduced via sibling inference — they
	// cost no task.
	Inferred bool
}

// ExecutionTrace collects the execution tree of one Group-Coverage
// run, for visualization and debugging. Pass it via
// GroupCoverageOptions.Trace.
type ExecutionTrace struct {
	Nodes []TraceNode
}

// record appends the query over [b, e), a child of parent (nil for
// an initial block).
func (t *ExecutionTrace) record(b, e int, parent *node, answer, inferred bool) {
	tn := TraceNode{B: b, E: e, Answer: answer, Inferred: inferred}
	if parent != nil {
		tn.HasParent = true
		tn.ParentB, tn.ParentE = parent.b, parent.e
	}
	t.Nodes = append(t.Nodes, tn)
}

// Tasks returns the number of recorded nodes that cost a task.
func (t *ExecutionTrace) Tasks() int {
	n := 0
	for _, nd := range t.Nodes {
		if !nd.Inferred {
			n++
		}
	}
	return n
}

// DOT renders the execution tree in Graphviz format: yes answers in
// green, no answers in red, inferred answers dashed.
func (t *ExecutionTrace) DOT() string {
	var b strings.Builder
	b.WriteString("digraph groupcoverage {\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	name := func(lo, hi int) string { return fmt.Sprintf("n%d_%d", lo, hi) }
	for _, nd := range t.Nodes {
		color := "firebrick"
		label := "no"
		if nd.Answer {
			color = "forestgreen"
			label = "yes"
		}
		style := "solid"
		if nd.Inferred {
			style = "dashed"
			label += " (inferred)"
		}
		fmt.Fprintf(&b, "  %s [label=\"[%d,%d) %s\", color=%s, style=%s];\n",
			name(nd.B, nd.E), nd.B, nd.E, label, color, style)
		if nd.HasParent {
			fmt.Fprintf(&b, "  %s -> %s;\n", name(nd.ParentB, nd.ParentE), name(nd.B, nd.E))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders the trace as an indented text tree, ordered by query
// sequence.
func (t *ExecutionTrace) String() string {
	var b strings.Builder
	for i, nd := range t.Nodes {
		answer := "no"
		if nd.Answer {
			answer = "yes"
		}
		if nd.Inferred {
			answer += " (inferred, free)"
		}
		fmt.Fprintf(&b, "%3d. [%d,%d) -> %s\n", i+1, nd.B, nd.E, answer)
	}
	return strings.TrimRight(b.String(), "\n")
}
