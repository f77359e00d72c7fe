package core

import (
	"fmt"

	"repro/internal/ir"
)

// CompOp is a composition operator from the Alchemy DSL (§3.1.1):
// sequential (>) or parallel (|).
type CompOp int

// Composition operators.
const (
	Seq CompOp = iota // mdl1 > mdl2: output feeds the next model
	Par               // mdl1 | mdl2: models run side by side
)

// String renders the operator with Alchemy syntax.
func (o CompOp) String() string {
	if o == Seq {
		return ">"
	}
	return "|"
}

// Composition is a DAG of models built from Seq/Par operators. A node is
// either a leaf (Model != nil) or an operator over children. "Models can
// either operate sequentially > or in parallel |, and can form a directed
// acyclic graph of any depth as long as the resources permit."
type Composition struct {
	Op       CompOp
	Children []*Composition
	Model    *ir.Model
}

// Leaf wraps a single model.
func Leaf(m *ir.Model) *Composition { return &Composition{Model: m} }

// Chain composes nodes sequentially (a > b > c ...).
func Chain(nodes ...*Composition) *Composition {
	return &Composition{Op: Seq, Children: nodes}
}

// Parallel composes nodes side by side (a | b | c ...).
func Parallel(nodes ...*Composition) *Composition {
	return &Composition{Op: Par, Children: nodes}
}

// Validate reports structural errors.
func (c *Composition) Validate() error {
	if c == nil {
		return fmt.Errorf("core: nil composition")
	}
	if c.Model != nil {
		if len(c.Children) != 0 {
			return fmt.Errorf("core: composition leaf with children")
		}
		return c.Model.Validate()
	}
	if len(c.Children) == 0 {
		return fmt.Errorf("core: composition operator with no children")
	}
	for _, ch := range c.Children {
		if err := ch.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Models returns the leaf models in schedule order.
func (c *Composition) Models() []*ir.Model {
	if c == nil {
		return nil
	}
	if c.Model != nil {
		return []*ir.Model{c.Model}
	}
	var out []*ir.Model
	for _, ch := range c.Children {
		out = append(out, ch.Models()...)
	}
	return out
}

// ChainDepth returns the longest sequential path length through the DAG —
// the latency-critical depth.
func (c *Composition) ChainDepth() int {
	if c == nil {
		return 0
	}
	if c.Model != nil {
		return 1
	}
	switch c.Op {
	case Seq:
		total := 0
		for _, ch := range c.Children {
			total += ch.ChainDepth()
		}
		return total
	default: // Par
		max := 0
		for _, ch := range c.Children {
			if d := ch.ChainDepth(); d > max {
				max = d
			}
		}
		return max
	}
}

// String renders the composition with Alchemy operator syntax.
func (c *Composition) String() string {
	if c == nil {
		return "<nil>"
	}
	if c.Model != nil {
		return c.Model.Name
	}
	s := "("
	for i, ch := range c.Children {
		if i > 0 {
			s += " " + c.Op.String() + " "
		}
		s += ch.String()
	}
	return s + ")"
}

// EstimateComposition maps a composition onto a target that implements
// the Composer capability, returning the Table-3 style verdict. On
// Taurus, resources are strategy-independent (glue logic folds into
// existing CUs) and latency follows the longest chain. Targets without
// whole-pipeline support return an error.
func EstimateComposition(t Target, c *Composition) (Verdict, error) {
	comp, ok := t.(Composer)
	if !ok {
		return Verdict{}, fmt.Errorf("core: target %s cannot host multi-model compositions", t.Name())
	}
	if err := c.Validate(); err != nil {
		return Verdict{}, err
	}
	return comp.EstimateComposition(c.Models(), c.ChainDepth())
}
