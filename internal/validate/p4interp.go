package validate

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/fixed"
)

// P4Interp executes an emitted P4 artifact. It is constructed from the
// source text alone — the same representation the MAT backend ships — so
// whatever function the artifact encodes is what runs; there is no back
// channel to the model that generated it. The interpreter implements the
// operational semantics documented in docs/validation.md: per-class wide
// MAC accumulators with a single writeback (SVM), exact 64-bit squared
// distances (KMeans), and level-table walks over quantized range entries
// (trees), all in the Q format declared by the artifact header.
type P4Interp struct {
	format  fixed.Format
	inputs  int
	outputs int
	mean    []float64
	std     []float64
	kind    string // "svm", "kmeans", "tree"

	features []string // header field names, in declaration order

	// svm
	macOrder []macTable // apply-order MAC tables
	bias     []int32

	// kmeans
	centroids [][]int32

	// tree
	levels []levelTable // apply-order level tables
}

type macTable struct {
	feature int     // index into the input vector
	weights []int32 // per-class quantized words
}

type levelTable struct {
	entries []treeEntry
}

type treeEntry struct {
	node    int
	feature int // -1 for set_leaf
	lo, hi  int32
	action  string // "goto_node" or "set_leaf"
	param   int
}

var (
	p4HeaderRE  = regexp.MustCompile(`// inputs=(\d+) outputs=(\d+) format=(\S+)`)
	p4NormRE    = regexp.MustCompile(`// normalize (\S+) mean=(\S+) std=(\S+)`)
	p4FieldRE   = regexp.MustCompile(`^\s*bit<\d+>\s+(\w+);`)
	p4TableRE   = regexp.MustCompile(`^\s*table\s+(\w+)\s*\{`)
	p4KeyRE     = regexp.MustCompile(`hdr\.features\.(\w+):`)
	p4ApplyRE   = regexp.MustCompile(`^\s*(\w+)\.apply\(\);`)
	p4WildRE    = regexp.MustCompile(`^\s*\(_\)\s*:\s*(\w+)\(([^)]*)\);`)
	p4GotoRE    = regexp.MustCompile(`^\s*\((\d+),\s*f(\d+),\s*(-?\d+)\.\.(-?\d+)\)\s*:\s*goto_node\((\d+)\);`)
	p4LeafRE    = regexp.MustCompile(`^\s*\((\d+),\s*_,\s*_\)\s*:\s*set_leaf\((\d+)\);`)
	p4ControlRE = regexp.MustCompile(`control\s+(\w+)Ingress`)
)

// NewP4Interp parses the emitted P4 source into an executable form.
func NewP4Interp(source string) (*P4Interp, error) {
	p := &P4Interp{}
	hm := p4HeaderRE.FindStringSubmatch(source)
	if hm == nil {
		return nil, fmt.Errorf("validate: p4 artifact has no inputs/outputs/format header")
	}
	var err error
	p.inputs, err = strconv.Atoi(hm[1])
	if err != nil {
		return nil, fmt.Errorf("validate: p4 artifact: inputs: %w", err)
	}
	if p.outputs, err = strconv.Atoi(hm[2]); err != nil || p.outputs < 1 {
		return nil, fmt.Errorf("validate: p4 artifact declares outputs=%s, want at least 1", hm[2])
	}
	if p.format, err = fixed.ParseFormat(hm[3]); err != nil {
		return nil, fmt.Errorf("validate: p4 artifact: %w", err)
	}
	cm := p4ControlRE.FindStringSubmatch(source)
	if cm == nil {
		return nil, fmt.Errorf("validate: p4 artifact has no Ingress control")
	}
	p.kind = strings.ToLower(cm[1])

	for _, nm := range p4NormRE.FindAllStringSubmatch(source, -1) {
		mean, err1 := strconv.ParseFloat(nm[2], 64)
		std, err2 := strconv.ParseFloat(nm[3], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("validate: p4 artifact: bad normalize line %q", nm[0])
		}
		p.mean = append(p.mean, mean)
		p.std = append(p.std, std)
	}
	if len(p.mean) != 0 && len(p.mean) != p.inputs {
		return nil, fmt.Errorf("validate: p4 artifact: %d normalize lines for %d inputs", len(p.mean), p.inputs)
	}

	// First pass: header field order, table blocks (key feature + const
	// entries), and the apply order.
	type tableBlock struct {
		name    string
		keyFeat string
		wildAct string
		wild    []int32
		tree    []treeEntry
	}
	tables := map[string]*tableBlock{}
	var applyOrder []string
	var cur *tableBlock
	inHeader := false
	depth := 0
	for _, line := range strings.Split(source, "\n") {
		switch {
		case strings.Contains(line, "header features_t {"):
			inHeader = true
			continue
		case inHeader:
			if strings.Contains(line, "}") {
				inHeader = false
				continue
			}
			if fm := p4FieldRE.FindStringSubmatch(line); fm != nil {
				p.features = append(p.features, fm[1])
			}
			continue
		}
		if tm := p4TableRE.FindStringSubmatch(line); tm != nil {
			cur = &tableBlock{name: tm[1]}
			tables[tm[1]] = cur
			depth = 1
			continue
		}
		if cur != nil {
			depth += strings.Count(line, "{") - strings.Count(line, "}")
			if km := p4KeyRE.FindStringSubmatch(line); km != nil {
				cur.keyFeat = km[1]
			}
			if wm := p4WildRE.FindStringSubmatch(line); wm != nil {
				cur.wildAct = wm[1]
				cur.wild, err = parseWords(wm[2])
				if err != nil {
					return nil, fmt.Errorf("validate: p4 artifact: table %s: %w", cur.name, err)
				}
			}
			if gm := p4GotoRE.FindStringSubmatch(line); gm != nil {
				e := treeEntry{action: "goto_node"}
				e.node, _ = strconv.Atoi(gm[1])
				e.feature, _ = strconv.Atoi(gm[2])
				lo, _ := strconv.ParseInt(gm[3], 10, 64)
				hi, _ := strconv.ParseInt(gm[4], 10, 64)
				e.lo, e.hi = int32(lo), int32(hi)
				e.param, _ = strconv.Atoi(gm[5])
				cur.tree = append(cur.tree, e)
			}
			if lm := p4LeafRE.FindStringSubmatch(line); lm != nil {
				e := treeEntry{action: "set_leaf", feature: -1}
				e.node, _ = strconv.Atoi(lm[1])
				e.param, _ = strconv.Atoi(lm[2])
				cur.tree = append(cur.tree, e)
			}
			if depth <= 0 {
				cur = nil
			}
			continue
		}
		if am := p4ApplyRE.FindStringSubmatch(line); am != nil {
			applyOrder = append(applyOrder, am[1])
		}
	}
	if len(p.features) != p.inputs {
		return nil, fmt.Errorf("validate: p4 artifact declares %d feature fields for %d inputs", len(p.features), p.inputs)
	}
	featIndex := map[string]int{}
	for i, name := range p.features {
		featIndex[name] = i
	}

	// Second pass: assemble the executable form in apply order.
	for _, name := range applyOrder {
		tb, ok := tables[name]
		if !ok {
			return nil, fmt.Errorf("validate: p4 artifact applies undeclared table %q", name)
		}
		switch {
		case strings.HasPrefix(name, "svm_mac_"):
			fi, ok := featIndex[tb.keyFeat]
			if !ok {
				return nil, fmt.Errorf("validate: p4 artifact: table %s keys on unknown feature %q", name, tb.keyFeat)
			}
			if len(tb.wild) != p.outputs {
				return nil, fmt.Errorf("validate: p4 artifact: table %s carries %d weight words for %d classes", name, len(tb.wild), p.outputs)
			}
			p.macOrder = append(p.macOrder, macTable{feature: fi, weights: tb.wild})
		case name == "svm_bias":
			if len(tb.wild) != p.outputs {
				return nil, fmt.Errorf("validate: p4 artifact: bias carries %d words for %d classes", len(tb.wild), p.outputs)
			}
			p.bias = tb.wild
		case strings.HasPrefix(name, "cluster_"):
			if len(tb.wild) != p.inputs {
				return nil, fmt.Errorf("validate: p4 artifact: table %s carries %d centroid words for %d inputs", name, len(tb.wild), p.inputs)
			}
			p.centroids = append(p.centroids, tb.wild)
		case strings.HasPrefix(name, "tree_level_"):
			for _, e := range tb.tree {
				if e.action == "set_leaf" && e.param >= p.outputs {
					return nil, fmt.Errorf("validate: p4 artifact: table %s sets class %d of %d", name, e.param, p.outputs)
				}
			}
			p.levels = append(p.levels, levelTable{entries: tb.tree})
		case name == "svm_decide" || name == "kmeans_decide":
			// p4gen no longer emits these entry-less selection tables
			// (the arg-max/arg-min is the last table's action), but
			// artifacts written before that still sit in daemons'
			// stores and go through the rollout gate, which must keep
			// passing them. They change nothing: the selection below
			// is the same first strict max / first strict min.
		default:
			return nil, fmt.Errorf("validate: p4 artifact applies unrecognized table %q", name)
		}
	}
	switch p.kind {
	case "svm":
		if len(p.macOrder) != p.inputs || p.bias == nil {
			return nil, fmt.Errorf("validate: p4 svm artifact incomplete (%d MAC tables, bias %v)", len(p.macOrder), p.bias != nil)
		}
	case "kmeans":
		if len(p.centroids) != p.outputs {
			return nil, fmt.Errorf("validate: p4 kmeans artifact has %d clusters, want %d", len(p.centroids), p.outputs)
		}
	case "tree":
		if len(p.levels) == 0 {
			return nil, fmt.Errorf("validate: p4 tree artifact has no level tables")
		}
	default:
		return nil, fmt.Errorf("validate: p4 artifact has unsupported control kind %q", p.kind)
	}
	return p, nil
}

func parseWords(list string) ([]int32, error) {
	var out []int32
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad parameter word %q", part)
		}
		out = append(out, int32(v))
	}
	return out, nil
}

// Inputs returns the artifact's declared feature width.
func (p *P4Interp) Inputs() int { return p.inputs }

// Classify executes the artifact over one feature vector, producing the
// class index the data plane would emit.
func (p *P4Interp) Classify(x []float64) (int, error) {
	if len(x) != p.inputs {
		return 0, fmt.Errorf("validate: input has %d features, artifact wants %d", len(x), p.inputs)
	}
	f := p.format
	xn := x
	if len(p.mean) == p.inputs {
		xn = make([]float64, len(x))
		for i := range x {
			xn[i] = (x[i] - p.mean[i]) / p.std[i]
		}
	}
	v := f.QuantizeVec(xn)
	switch p.kind {
	case "svm":
		acc := make([]int64, p.outputs)
		for _, mt := range p.macOrder {
			for c := 0; c < p.outputs; c++ {
				acc[c] += int64(mt.weights[c]) * int64(v[mt.feature])
			}
		}
		scores := make([]int32, p.outputs)
		for c := 0; c < p.outputs; c++ {
			scores[c] = f.Add(f.Writeback(acc[c]), p.bias[c])
		}
		best, bi := scores[0], 0
		for i, s := range scores {
			if s > best {
				best, bi = s, i
			}
		}
		return bi, nil
	case "kmeans":
		bestK, bestD := 0, int64(-1)
		for k, cq := range p.centroids {
			var d int64
			for i := range cq {
				diff := int64(v[i]) - int64(cq[i])
				d += diff * diff
			}
			if bestD < 0 || d < bestD {
				bestD, bestK = d, k
			}
		}
		return bestK, nil
	case "tree":
		node := 0
		for _, lvl := range p.levels {
			if node < 0 {
				break
			}
			matched := false
			for _, e := range lvl.entries {
				if e.node != node {
					continue
				}
				if e.action == "set_leaf" {
					return e.param, nil
				}
				if e.feature >= p.inputs {
					return 0, fmt.Errorf("validate: p4 tree entry selects feature %d of %d", e.feature, p.inputs)
				}
				if v[e.feature] >= e.lo && v[e.feature] <= e.hi {
					node = e.param
					matched = true
					break
				}
			}
			if !matched {
				return 0, fmt.Errorf("validate: p4 tree walk stuck at node %d (no matching entry)", node)
			}
		}
		return 0, fmt.Errorf("validate: p4 tree walk ran out of levels at node %d", node)
	}
	return 0, fmt.Errorf("validate: p4 artifact kind %q not executable", p.kind)
}
