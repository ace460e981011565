package ckks

import (
	"context"

	"repro/internal/fherr"
)

// Op is one entry of the op table: a Table 2 primitive a front-end can
// name. Name is its wire name (fhed's eval "op", the fhe subcommand);
// Site is the Do site, so the boundary span is Site+"E" and the fault
// hooks are Site+".c0", ".c1" and ".scale"; a Binary op takes a second
// ciphertext. The integer operand is the rotation step, the inner-sum
// width or the target level; the other ops ignore it.
type Op struct {
	Name   string
	Site   string
	Binary bool
	run    func(ev *Evaluator, a, b *Ciphertext, by int) *Ciphertext
}

// ops is the one op table: fhed's eval handler and the fhe subcommands
// both dispatch through it.
var ops = []Op{
	{"add", "ckks.Add", true, func(ev *Evaluator, a, b *Ciphertext, _ int) *Ciphertext { return ev.Add(a, b) }},
	{"sub", "ckks.Sub", true, func(ev *Evaluator, a, b *Ciphertext, _ int) *Ciphertext { return ev.Sub(a, b) }},
	{"mul", "ckks.Mul", true, func(ev *Evaluator, a, b *Ciphertext, _ int) *Ciphertext { return ev.Mul(a, b) }},
	{"square", "ckks.Square", false, func(ev *Evaluator, a, _ *Ciphertext, _ int) *Ciphertext { return ev.Square(a) }},
	{"rescale", "ckks.Rescale", false, func(ev *Evaluator, a, _ *Ciphertext, _ int) *Ciphertext { return ev.Rescale(a) }},
	{"droplevel", "ckks.DropLevel", false, func(ev *Evaluator, a, _ *Ciphertext, by int) *Ciphertext { return ev.DropLevel(a, by) }},
	{"rotate", "ckks.Rotate", false, func(ev *Evaluator, a, _ *Ciphertext, by int) *Ciphertext { return ev.Rotate(a, by) }},
	{"conjugate", "ckks.Conjugate", false, func(ev *Evaluator, a, _ *Ciphertext, _ int) *Ciphertext { return ev.Conjugate(a) }},
	{"innersum", "ckks.InnerSum", false, func(ev *Evaluator, a, _ *Ciphertext, by int) *Ciphertext { return ev.InnerSum(a, by) }},
}

// OpNames returns the table's wire names, in table order.
func OpNames() []string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name
	}
	return names
}

// LookupOp returns the table entry named name; an unknown name is
// fherr.ErrUsage.
func LookupOp(name string) (Op, error) {
	for _, op := range ops {
		if op.Name == name {
			return op, nil
		}
	}
	return Op{}, fherr.Errorf(fherr.ErrUsage, "ckks: unknown op %q", name)
}

// Apply runs op through the checked boundary: Do(ctx, op.Site, …) with a,
// and b for a binary op, as the validated operands. A binary op without
// b is fherr.ErrUsage, returned before any kernel runs.
func (ev *Evaluator) Apply(ctx context.Context, op Op, a, b *Ciphertext, by int) (*Ciphertext, error) {
	ins := []*Ciphertext{a}
	if op.Binary {
		if b == nil {
			return nil, fherr.Errorf(fherr.ErrUsage, "ckks: op %q needs operand b", op.Name)
		}
		ins = append(ins, b)
	}
	return ev.Do(ctx, op.Site, func(ev *Evaluator) *Ciphertext { return op.run(ev, a, b, by) }, ins...)
}
