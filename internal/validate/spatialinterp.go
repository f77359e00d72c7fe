package validate

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/fixed"
)

// SpatialInterp executes an emitted Spatial artifact. Like P4Interp it is
// built from the shipped source text alone. The operational semantics
// (docs/validation.md) interpret the Taurus template library the way the
// fabric executes it: LUT parameters quantize to the artifact's Q format,
// each Foreach/Reduce nest is a wide-accumulator dot product with one
// writeback, activations are the fixed PWL approximations, svm_score /
// kmeans_distance are the linear kernels over the embedded LUTs, and mux
// trees compare quantized feature words against quantized thresholds.
type SpatialInterp struct {
	format  fixed.Format
	inputs  int
	outputs int
	mean    []float64
	std     []float64
	kind    string // "dnn", "svm", "kmeans", "tree"

	layers []spatialLayer // dnn

	w    [][]float64 // svm hyperplanes / kmeans centroids
	bias []float64   // svm

	tree *muxNode // tree

	argMin bool // selection stage: ArgMin (kmeans) vs ArgMax
}

type spatialLayer struct {
	in, out    int
	w          [][]float64
	b          []float64
	activation string // "relu", "sigmoid", "tanh", "softmax"
}

type muxNode struct {
	feature     int
	threshold   float64
	class       int // leaf value when left/right nil
	left, right *muxNode
}

var (
	spHeaderRE = regexp.MustCompile(`// inputs=(\d+) outputs=(\d+) params=\d+ format=(\S+)`)
	spNormRE   = regexp.MustCompile(`val norm = normalize\(fields, mean=([^)]*), std=([^)]*)\)`)
	spLutRE    = regexp.MustCompile(`val (\w+) = LUT\[T\]\((\d+)(?:, (\d+))?\)\(`)
	spActRE    = regexp.MustCompile(`layer(\d+)\(o\) = (\w+)\(acc\.value \+ b\d+\(o\)\)`)
	spMuxRE    = regexp.MustCompile(`val decision = (mux\(|\d)`)
)

// NewSpatialInterp parses the emitted Spatial source into an executable
// form. A program whose shapes no model has — LUTs that do not chain
// from the declared inputs to the declared outputs, a tree testing a
// feature outside the input or reaching a class outside the outputs — is
// refused here (the rules of ir.Model.Validate), so Classify never
// indexes out of range.
func NewSpatialInterp(source string) (*SpatialInterp, error) {
	s := &SpatialInterp{}
	hm := spHeaderRE.FindStringSubmatch(source)
	if hm == nil {
		return nil, fmt.Errorf("validate: spatial artifact has no inputs/outputs/format header")
	}
	var err error
	if s.inputs, err = strconv.Atoi(hm[1]); err != nil || s.inputs < 1 {
		return nil, fmt.Errorf("validate: spatial artifact declares inputs=%s, want at least 1", hm[1])
	}
	if s.outputs, err = strconv.Atoi(hm[2]); err != nil || s.outputs < 1 {
		return nil, fmt.Errorf("validate: spatial artifact declares outputs=%s, want at least 1", hm[2])
	}
	if s.format, err = fixed.ParseFormat(hm[3]); err != nil {
		return nil, fmt.Errorf("validate: spatial artifact: %w", err)
	}

	if nm := spNormRE.FindStringSubmatch(source); nm != nil {
		if s.mean, err = parseFloats(nm[1]); err != nil {
			return nil, fmt.Errorf("validate: spatial artifact: normalize mean: %w", err)
		}
		if s.std, err = parseFloats(nm[2]); err != nil {
			return nil, fmt.Errorf("validate: spatial artifact: normalize std: %w", err)
		}
		if len(s.mean) != s.inputs || len(s.std) != s.inputs {
			return nil, fmt.Errorf("validate: spatial artifact: normalize width %d/%d for %d inputs", len(s.mean), len(s.std), s.inputs)
		}
	}

	// Collect every LUT with its (possibly multi-line) contents.
	luts := map[string]struct {
		rows, cols int // cols 0 for 1-D
		vals       []float64
	}{}
	for _, loc := range spLutRE.FindAllStringSubmatchIndex(source, -1) {
		name := source[loc[2]:loc[3]]
		rows, err := strconv.Atoi(source[loc[4]:loc[5]])
		if err != nil || rows < 1 {
			return nil, fmt.Errorf("validate: spatial artifact: LUT %s has %s rows, want at least 1", name, source[loc[4]:loc[5]])
		}
		cols := 0
		if loc[6] >= 0 {
			if cols, err = strconv.Atoi(source[loc[6]:loc[7]]); err != nil || cols < 1 {
				return nil, fmt.Errorf("validate: spatial artifact: LUT %s has %s columns, want at least 1", name, source[loc[6]:loc[7]])
			}
		}
		body, err := balancedParen(source, loc[1]-1)
		if err != nil {
			return nil, fmt.Errorf("validate: spatial artifact: LUT %s: %w", name, err)
		}
		vals, err := parseFloats(body)
		if err != nil {
			return nil, fmt.Errorf("validate: spatial artifact: LUT %s: %w", name, err)
		}
		// rows x cols is checked by division: the product of two hostile
		// sizes may overflow.
		if n := len(vals); cols == 0 && n != rows || cols > 0 && (n%cols != 0 || n/cols != rows) {
			return nil, fmt.Errorf("validate: spatial artifact: LUT %s has %d values for %d x %d", name, n, rows, max(cols, 1))
		}
		luts[name] = struct {
			rows, cols int
			vals       []float64
		}{rows, cols, vals}
	}

	switch {
	case strings.Contains(source, "svm_score("):
		s.kind = "svm"
		wl, ok := luts["w"]
		if !ok || wl.cols == 0 {
			return nil, fmt.Errorf("validate: spatial svm artifact has no hyperplane LUT")
		}
		bl, ok := luts["bias"]
		if !ok {
			return nil, fmt.Errorf("validate: spatial svm artifact has no bias LUT")
		}
		if wl.rows != s.outputs || len(bl.vals) != s.outputs || wl.cols != s.inputs {
			return nil, fmt.Errorf("validate: spatial svm artifact carries %d hyperplanes of %d/%d biases for %d classes of %d features",
				wl.rows, wl.cols, len(bl.vals), s.outputs, s.inputs)
		}
		s.w = reshape(wl.vals, wl.rows, wl.cols)
		s.bias = bl.vals
	case strings.Contains(source, "kmeans_distance("):
		s.kind = "kmeans"
		cl, ok := luts["centroids"]
		if !ok || cl.cols == 0 {
			return nil, fmt.Errorf("validate: spatial kmeans artifact has no centroid LUT")
		}
		if cl.rows != s.outputs || cl.cols != s.inputs {
			return nil, fmt.Errorf("validate: spatial kmeans artifact carries %d centroids of %d for %d clusters of %d features",
				cl.rows, cl.cols, s.outputs, s.inputs)
		}
		s.w = reshape(cl.vals, cl.rows, cl.cols)
		if !strings.Contains(source, "ArgMin(") {
			return nil, fmt.Errorf("validate: spatial kmeans artifact selects with ArgMax (distances need ArgMin)")
		}
		s.argMin = true
	case spMuxRE.MatchString(source):
		s.kind = "tree"
		dm := spMuxRE.FindStringIndex(source)
		expr := source[dm[0]+len("val decision = "):]
		if end := strings.Index(expr, "\n"); end >= 0 {
			expr = expr[:end]
		}
		node, rest, err := s.parseMux(strings.TrimSpace(expr))
		if err != nil {
			return nil, fmt.Errorf("validate: spatial tree artifact: %w", err)
		}
		if strings.TrimSpace(rest) != "" {
			return nil, fmt.Errorf("validate: spatial tree artifact: trailing expression %q", rest)
		}
		s.tree = node
	default:
		// DNN: ordered layer LUT pairs w<i>/b<i> plus activation lines.
		s.kind = "dnn"
		acts := map[int]string{}
		for _, am := range spActRE.FindAllStringSubmatch(source, -1) {
			li, _ := strconv.Atoi(am[1])
			acts[li] = activationName(am[2])
		}
		prev := s.inputs
		for i := 0; ; i++ {
			wl, ok := luts[fmt.Sprintf("w%d", i)]
			if !ok {
				break
			}
			bl, ok := luts[fmt.Sprintf("b%d", i)]
			if !ok || wl.cols != prev || len(bl.vals) != wl.rows {
				return nil, fmt.Errorf("validate: spatial dnn artifact: layer %d LUTs malformed", i)
			}
			prev = wl.rows
			act, ok := acts[i]
			if !ok {
				return nil, fmt.Errorf("validate: spatial dnn artifact: layer %d has no activation", i)
			}
			s.layers = append(s.layers, spatialLayer{
				in: wl.cols, out: wl.rows,
				w: reshape(wl.vals, wl.rows, wl.cols), b: bl.vals,
				activation: act,
			})
		}
		if len(s.layers) == 0 {
			return nil, fmt.Errorf("validate: spatial artifact matches no known template structure")
		}
		if prev != s.outputs {
			return nil, fmt.Errorf("validate: spatial dnn artifact ends in %d outputs, declares %d", prev, s.outputs)
		}
	}
	return s, nil
}

// balancedParen returns the contents of the parenthesized group opening
// at source[open] (which must be '(').
func balancedParen(source string, open int) (string, error) {
	if open >= len(source) || source[open] != '(' {
		return "", fmt.Errorf("expected '(' at offset %d", open)
	}
	depth := 0
	for i := open; i < len(source); i++ {
		switch source[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return source[open+1 : i], nil
			}
		}
	}
	return "", fmt.Errorf("unbalanced parentheses")
}

func parseFloats(list string) ([]float64, error) {
	var out []float64
	for _, part := range strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == '\n' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float literal %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func reshape(vals []float64, rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		out[r] = vals[r*cols : (r+1)*cols]
	}
	return out
}

func activationName(fn string) string {
	switch fn {
	case "max0":
		return "relu"
	case "sigmoidPWL":
		return "sigmoid"
	case "tanhPWL":
		return "tanh"
	default: // identity
		return "softmax"
	}
}

// parseMux parses `mux(<vec>(<idx>) <= <float>.to[T], <expr>, <expr>)` or
// an integer leaf, returning the node and the unconsumed remainder. A
// feature outside the input or a class outside the outputs is refused.
func (s *SpatialInterp) parseMux(expr string) (*muxNode, string, error) {
	expr = strings.TrimSpace(expr)
	if !strings.HasPrefix(expr, "mux(") {
		i := 0
		for i < len(expr) && (expr[i] == '-' || expr[i] >= '0' && expr[i] <= '9') {
			i++
		}
		if i == 0 {
			return nil, expr, fmt.Errorf("expected mux or leaf class at %q", truncate(expr))
		}
		cls, err := strconv.Atoi(expr[:i])
		if err != nil || cls < 0 || cls >= s.outputs {
			return nil, expr, fmt.Errorf("leaf class %s outside [0, %d)", expr[:i], s.outputs)
		}
		return &muxNode{feature: -1, class: cls}, expr[i:], nil
	}
	rest := expr[len("mux("):]
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return nil, expr, fmt.Errorf("mux condition has no feature selector at %q", truncate(rest))
	}
	closeIdx := strings.IndexByte(rest[open:], ')')
	if closeIdx < 0 {
		return nil, expr, fmt.Errorf("mux condition unterminated at %q", truncate(rest))
	}
	feat, err := strconv.Atoi(rest[open+1 : open+closeIdx])
	if err != nil || feat < 0 || feat >= s.inputs {
		return nil, expr, fmt.Errorf("mux feature index %q outside [0, %d)", rest[open+1:open+closeIdx], s.inputs)
	}
	rest = rest[open+closeIdx+1:]
	le := strings.Index(rest, "<=")
	toT := strings.Index(rest, ".to[T],")
	if le < 0 || toT < 0 || toT < le {
		return nil, expr, fmt.Errorf("mux threshold malformed at %q", truncate(rest))
	}
	thr, err := strconv.ParseFloat(strings.TrimSpace(rest[le+2:toT]), 64)
	if err != nil {
		return nil, expr, fmt.Errorf("mux threshold: %w", err)
	}
	rest = rest[toT+len(".to[T],"):]
	left, rest, err := s.parseMux(rest)
	if err != nil {
		return nil, expr, err
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, ",") {
		return nil, expr, fmt.Errorf("mux missing right arm at %q", truncate(rest))
	}
	right, rest, err := s.parseMux(rest[1:])
	if err != nil {
		return nil, expr, err
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, ")") {
		return nil, expr, fmt.Errorf("mux unterminated at %q", truncate(rest))
	}
	return &muxNode{feature: feat, threshold: thr, left: left, right: right}, rest[1:], nil
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// Classify executes the artifact over one feature vector.
func (s *SpatialInterp) Classify(x []float64) (int, error) {
	if len(x) != s.inputs {
		return 0, fmt.Errorf("validate: input has %d features, artifact wants %d", len(x), s.inputs)
	}
	f := s.format
	xn := x
	if len(s.mean) == s.inputs {
		xn = make([]float64, len(x))
		for i := range x {
			xn[i] = (x[i] - s.mean[i]) / s.std[i]
		}
	}
	v := f.QuantizeVec(xn)
	switch s.kind {
	case "dnn":
		for _, l := range s.layers {
			next := make([]int32, l.out)
			for o := 0; o < l.out; o++ {
				wq := f.QuantizeVec(l.w[o])
				acc := f.Add(f.DotQ(wq, v), f.Quantize(l.b[o]))
				switch l.activation {
				case "relu":
					acc = fixed.ReLUQ(acc)
				case "sigmoid":
					acc = f.SigmoidQ(acc)
				case "tanh":
					one := f.Quantize(1)
					if acc > one {
						acc = one
					}
					if acc < -one {
						acc = -one
					}
				}
				next[o] = acc
			}
			v = next
		}
		return firstArgMax(v), nil
	case "svm":
		scores := make([]int32, len(s.w))
		for k := range s.w {
			wq := f.QuantizeVec(s.w[k])
			scores[k] = f.Add(f.DotQ(wq, v), f.Quantize(s.bias[k]))
		}
		return firstArgMax(scores), nil
	case "kmeans":
		bestK, bestD := 0, int64(-1)
		for k := range s.w {
			cq := f.QuantizeVec(s.w[k])
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
		n := s.tree
		for n.feature >= 0 {
			if v[n.feature] <= f.Quantize(n.threshold) {
				n = n.left
			} else {
				n = n.right
			}
		}
		return n.class, nil
	}
	return 0, fmt.Errorf("validate: spatial artifact kind %q not executable", s.kind)
}

func firstArgMax(v []int32) int {
	best, bi := v[0], 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}
