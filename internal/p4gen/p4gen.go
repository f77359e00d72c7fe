// Package p4gen generates P4-16 source for classical models mapped onto
// match-action tables after IIsy (§4). The emitted program is the one
// description of a model's MAT layout: the Tofino backend's verdict
// counts its tables and entries through Layout, so what the search
// budgets is what ships.
//
//   - SVM: one MAC table per feature, whose always-matching entry carries
//     the feature's quantized per-class weight words and accumulates
//     into wide per-class registers, then one bias table whose action
//     writes back (acc >> frac, saturating), adds the bias and picks the
//     first strict arg-max: Inputs+1 tables.
//   - KMeans: one table per cluster (§5.2.2), whose entry carries the
//     quantized centroid and computes a 64-bit squared distance; the
//     last cluster's action picks the first strict arg-min.
//   - Decision tree: one table per level, matching the node id exactly
//     and the node's split feature by range.
//
// The program targets a v1model-style pipeline and is self-contained:
// every parameter the data plane needs (weight and centroid words, node
// ranges, leaf classes, the normalization affine) is embedded as `const
// entries` blocks and header comments, so the artifact alone determines
// the computed function. internal/validate executes exactly this text
// and checks it bit-for-bit against ir.Model.InferQ. The MAC and
// distance actions multiply at run time, which a Tofino stage does not
// do at line rate; IIsy's feature-range tables avoid that, but their
// midpoint partial scores diverge from InferQ, so exactness wins here.
package p4gen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// Entry is one control-plane table entry. Node/Feature/Lo/Hi form the
// match key (tree levels match node id exactly and the node's split
// feature value by range; MAC/distance tables match everything), and
// Action/Param/Params carry the action data: Param a scalar id (next
// node, leaf class) and Params the packed per-class or per-feature
// fixed-point words (MAC weights, biases, centroid coordinates).
type Entry struct {
	Table   string
	Node    int // tree node id (exact match; -1 when the table has no node key)
	Feature int // feature index the range applies to (-1 when unused)
	Lo, Hi  int32
	Action  string
	Param   int
	Params  []int32
}

// Program is generated P4 source plus control-plane entries. Entries
// duplicates the `const entries` blocks embedded in Source for callers
// that want the structured form.
type Program struct {
	Source  string
	Tables  []string
	Entries []Entry
}

// Generate emits a P4 program for the model. DNNs are rejected: MAT
// pipelines cannot execute dense matrix multiplies (use the Taurus
// backend / spatialgen instead).
func Generate(m *ir.Model) (Program, error) {
	if err := check(m); err != nil {
		return Program{}, err
	}
	switch m.Kind {
	case ir.SVM:
		return generateSVM(m), nil
	case ir.KMeans:
		return generateKMeans(m), nil
	default:
		return generateTree(m), nil
	}
}

// Layout is the shape of the program Generate emits for m: how many
// tables it has and the most entries any one of them holds. It renders
// nothing, so a search can afford it for every candidate. A tree's
// entries come from the same walk Generate renders.
func Layout(m *ir.Model) (tables, entries int, err error) {
	if err := check(m); err != nil {
		return 0, 0, err
	}
	switch m.Kind {
	case ir.SVM:
		// A MAC table per feature, then the bias table: one wildcard
		// entry each.
		return m.Inputs + 1, 1, nil
	case ir.KMeans:
		// A table per cluster, one wildcard entry each.
		return len(m.Centroids), 1, nil
	default:
		sizes := make([]int, m.Tree.Depth()+1)
		walkTree(m, func(level int, _ Entry) {
			sizes[level]++
			entries = max(entries, sizes[level])
		})
		return len(sizes), entries, nil
	}
}

// check refuses what Generate cannot emit.
func check(m *ir.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	switch m.Kind {
	case ir.SVM, ir.KMeans, ir.DTree:
		return nil
	case ir.DNN:
		return fmt.Errorf("p4gen: DNNs do not map to MAT pipelines; use the Taurus backend")
	default:
		return fmt.Errorf("p4gen: unsupported kind %v", m.Kind)
	}
}

func header(m *ir.Model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Auto-generated by Homunculus for model %q (%s via IIsy mapping)\n", m.Name, m.Kind)
	fmt.Fprintf(&b, "// inputs=%d outputs=%d format=%s\n", m.Inputs, m.Outputs, m.Format)
	// The normalization affine applies in the feature-extraction stage
	// before quantization; it is part of the computed function, so the
	// artifact carries it (shortest round-trip float formatting — the
	// parsed-back values are bit-identical to the model's).
	if len(m.Mean) == m.Inputs {
		for i := 0; i < m.Inputs; i++ {
			fmt.Fprintf(&b, "// normalize %s mean=%s std=%s\n",
				featureName(m, i), formatFloat(m.Mean[i]), formatFloat(m.Std[i]))
		}
	}
	b.WriteString("#include <core.p4>\n#include <v1model.p4>\n\n")
	b.WriteString("header features_t {\n")
	for i := 0; i < m.Inputs; i++ {
		fmt.Fprintf(&b, "    bit<%d> %s;\n", m.Format.Bits(), featureName(m, i))
	}
	b.WriteString("}\n\n")
	return b.String()
}

func featureName(m *ir.Model, i int) string {
	if i < len(m.FeatureNames) {
		return sanitize(m.FeatureNames[i])
	}
	return fmt.Sprintf("f%d", i)
}

// formatFloat renders v with the shortest representation that parses back
// to the identical float64 (strconv 'g' precision -1), so embedding a
// parameter in source text loses no precision.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func wordList(words []int32) string {
	parts := make([]string, len(words))
	for i, w := range words {
		parts[i] = strconv.FormatInt(int64(w), 10)
	}
	return strings.Join(parts, ", ")
}

// emitWildcardEntry writes a single always-matching const entry carrying
// packed parameter words, and returns the structured form.
func emitWildcardEntry(b *strings.Builder, table, action string, params []int32) Entry {
	b.WriteString("        const entries = {\n")
	fmt.Fprintf(b, "            (_) : %s(%s);\n", action, wordList(params))
	b.WriteString("        }\n")
	return Entry{Table: table, Node: -1, Feature: -1, Action: action, Params: params}
}

func generateSVM(m *ir.Model) Program {
	var b strings.Builder
	var p Program
	f := m.Format
	b.WriteString(header(m))
	b.WriteString("control SvmIngress(inout headers hdr, inout metadata meta) {\n")
	fmt.Fprintf(&b, "    // Wide per-class MAC accumulators: full precision until one\n")
	fmt.Fprintf(&b, "    // writeback (acc >> %d, saturating) before the bias add.\n", f.FracBits)
	fmt.Fprintf(&b, "    register<bit<64>> acc_%d;\n", m.Outputs)
	for fi := 0; fi < m.Inputs; fi++ {
		table := fmt.Sprintf("svm_mac_%s", featureName(m, fi))
		p.Tables = append(p.Tables, table)
		wq := make([]int32, m.Outputs)
		for c := 0; c < m.Outputs; c++ {
			wq[c] = f.Quantize(m.SVM.W[c][fi])
		}
		fmt.Fprintf(&b, "\n    action mac_%d(", fi)
		writeParamDecl(&b, m.Outputs, "w")
		fmt.Fprintf(&b, ") { /* acc[c] += w_c * hdr.features.%s */ }\n", featureName(m, fi))
		fmt.Fprintf(&b, "    table %s {\n", table)
		fmt.Fprintf(&b, "        key = { hdr.features.%s: ternary; }\n", featureName(m, fi))
		fmt.Fprintf(&b, "        actions = { mac_%d; }\n", fi)
		p.Entries = append(p.Entries, emitWildcardEntry(&b, table, fmt.Sprintf("mac_%d", fi), wq))
		b.WriteString("    }\n")
	}
	// Bias stage: score_c = saturate(acc_c >> frac) + b_c (saturating).
	bq := make([]int32, m.Outputs)
	for c := 0; c < m.Outputs; c++ {
		bq[c] = f.Quantize(m.SVM.B[c])
	}
	p.Tables = append(p.Tables, "svm_bias")
	b.WriteString("\n    action bias(")
	writeParamDecl(&b, m.Outputs, "b")
	b.WriteString(") { /* score[c] = sat(acc[c] >> frac) + b_c; meta.class = first strict argmax score[c] */ }\n")
	b.WriteString("    table svm_bias {\n")
	b.WriteString("        key = { meta.valid: exact; }\n")
	b.WriteString("        actions = { bias; }\n")
	p.Entries = append(p.Entries, emitWildcardEntry(&b, "svm_bias", "bias", bq))
	b.WriteString("    }\n")
	b.WriteString("\n    apply {\n")
	for fi := 0; fi < m.Inputs; fi++ {
		fmt.Fprintf(&b, "        svm_mac_%s.apply();\n", featureName(m, fi))
	}
	b.WriteString("        svm_bias.apply();\n    }\n}\n")
	p.Source = b.String()
	return p
}

func writeParamDecl(b *strings.Builder, n int, prefix string) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "bit<32> %s%d", prefix, i)
	}
}

func generateKMeans(m *ir.Model) Program {
	var b strings.Builder
	var p Program
	f := m.Format
	b.WriteString(header(m))
	b.WriteString("control KmeansIngress(inout headers hdr, inout metadata meta) {\n")
	for k := range m.Centroids {
		table := fmt.Sprintf("cluster_%d", k)
		p.Tables = append(p.Tables, table)
		cq := make([]int32, m.Inputs)
		for fi := 0; fi < m.Inputs; fi++ {
			cq[fi] = f.Quantize(m.Centroids[k][fi])
		}
		fmt.Fprintf(&b, "\n    action dist_%d(", k)
		writeParamDecl(&b, m.Inputs, "c")
		fmt.Fprintf(&b, ") { /* meta.dist[%d] = sum_i (v_i - c_i)^2, 64-bit", k)
		if k == len(m.Centroids)-1 {
			b.WriteString("; meta.class = first strict argmin meta.dist[k]")
		}
		b.WriteString(" */ }\n")
		fmt.Fprintf(&b, "    table %s {\n", table)
		b.WriteString("        key = { meta.valid: exact; }\n")
		fmt.Fprintf(&b, "        actions = { dist_%d; }\n", k)
		p.Entries = append(p.Entries, emitWildcardEntry(&b, table, fmt.Sprintf("dist_%d", k), cq))
		b.WriteString("    }\n")
	}
	b.WriteString("\n    apply {\n")
	for k := range m.Centroids {
		fmt.Fprintf(&b, "        cluster_%d.apply();\n", k)
	}
	b.WriteString("    }\n}\n")
	p.Source = b.String()
	return p
}

func generateTree(m *ir.Model) Program {
	var b strings.Builder
	var p Program
	b.WriteString(header(m))
	b.WriteString("control TreeIngress(inout headers hdr, inout metadata meta) {\n")
	b.WriteString("    action goto_node(bit<16> next) { meta.node = next; }\n")
	b.WriteString("    action set_leaf(bit<8> cls) { meta.class = cls; meta.node = 0xffff; }\n")

	depth := m.Tree.Depth()
	entries := make([][]Entry, depth+1)
	walkTree(m, func(level int, e Entry) {
		entries[level] = append(entries[level], e)
	})

	for lvl := 0; lvl <= depth; lvl++ {
		table := fmt.Sprintf("tree_level_%d", lvl)
		p.Tables = append(p.Tables, table)
		fmt.Fprintf(&b, "\n    table %s {\n", table)
		b.WriteString("        key = { meta.node: exact; meta.feature_sel: exact; meta.feature_value: range; }\n")
		b.WriteString("        actions = { goto_node; set_leaf; NoAction; }\n")
		b.WriteString("        const entries = {\n")
		for _, e := range entries[lvl] {
			if e.Action == "set_leaf" {
				fmt.Fprintf(&b, "            (%d, _, _) : set_leaf(%d);\n", e.Node, e.Param)
			} else {
				fmt.Fprintf(&b, "            (%d, f%d, %d..%d) : goto_node(%d);\n",
					e.Node, e.Feature, e.Lo, e.Hi, e.Param)
			}
			e.Table = table
			p.Entries = append(p.Entries, e)
		}
		b.WriteString("        }\n    }\n")
	}
	b.WriteString("\n    apply {\n")
	for lvl := 0; lvl <= depth; lvl++ {
		fmt.Fprintf(&b, "        tree_level_%d.apply();\n", lvl)
	}
	b.WriteString("    }\n}\n")
	p.Source = b.String()
	return p
}

// walkTree visits the entries of a tree's level tables in emission
// order, without their table name. Nodes are numbered breadth-first and
// a node's entries live in the table of its level, so walking
// tree_level_0..depth visits one entry per level on any root-to-leaf
// path. Leaves install set_leaf entries (a single-node tree is one
// level-0 set_leaf); internal nodes split the format's full raw range at
// the quantized threshold, matching InferQ's `v[feat] <= Quantize(threshold)`
// exactly.
func walkTree(m *ir.Model, visit func(level int, e Entry)) {
	f := m.Format
	type bfsNode struct {
		n     *ir.TreeNode
		id    int
		level int
	}
	queue := []bfsNode{{m.Tree, 0, 0}}
	next := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.n.Feature < 0 {
			visit(cur.level, Entry{
				Node: cur.id, Feature: -1,
				Lo: f.MinRaw(), Hi: f.MaxRaw(),
				Action: "set_leaf", Param: cur.n.Class,
			})
			continue
		}
		leftID, rightID := next, next+1
		next += 2
		th := f.Quantize(cur.n.Threshold)
		visit(cur.level, Entry{
			Node: cur.id, Feature: cur.n.Feature,
			Lo: f.MinRaw(), Hi: th,
			Action: "goto_node", Param: leftID,
		})
		if th < f.MaxRaw() {
			visit(cur.level, Entry{
				Node: cur.id, Feature: cur.n.Feature,
				Lo: th + 1, Hi: f.MaxRaw(),
				Action: "goto_node", Param: rightID,
			})
		}
		queue = append(queue, bfsNode{cur.n.Left, leftID, cur.level + 1},
			bfsNode{cur.n.Right, rightID, cur.level + 1})
	}
}

func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	if b.Len() == 0 {
		return "f"
	}
	return b.String()
}
