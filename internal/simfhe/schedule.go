package simfhe

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file gives SimFHE the same front door the paper's tool has:
// "benchmark the compute and memory requirements of CKKS at different
// scales: from primitive operations to end-to-end applications". A
// Schedule is a straight-line CKKS program over the Table 2 primitives;
// the interpreter tracks the level (rescaling operations descend the
// modulus chain, bootstrapping restores it) and charges each step's cost
// at the limb count it actually executes with.

// OpKind enumerates the schedulable operations.
type OpKind int

const (
	OpAdd OpKind = iota
	OpPtAdd
	OpMult
	OpPtMult
	OpRotate
	OpConjugate
	OpRescale
	OpBootstrap
)

var opNames = map[OpKind]string{
	OpAdd: "add", OpPtAdd: "ptadd", OpMult: "mult", OpPtMult: "ptmult",
	OpRotate: "rotate", OpConjugate: "conjugate", OpRescale: "rescale",
	OpBootstrap: "bootstrap",
}

var opByName = func() map[string]OpKind {
	m := make(map[string]OpKind, len(opNames))
	for k, v := range opNames {
		m[v] = k
	}
	return m
}()

// levelCost returns how many levels one instance of the operation
// consumes (Mult and PtMult include their Rescale per Table 2).
func (k OpKind) levelCost() int {
	switch k {
	case OpMult, OpPtMult, OpRescale:
		return 1
	default:
		return 0
	}
}

func (k OpKind) String() string { return opNames[k] }

// Step is one schedule entry: Count repetitions of one operation.
type Step struct {
	Kind  OpKind
	Count int
}

// Schedule is a straight-line CKKS program.
type Schedule struct {
	Name  string
	Steps []Step
}

// StepCost pairs one executed operation with its attribution tree, the
// cost charged for it (the tree's total) and the limb count it left.
type StepCost struct {
	Step  Step
	Limbs int
	Cost  Cost
	Tree  *CostTree
	// AutoBootstrap marks a step the interpreter had to bootstrap before;
	// that bootstrap is counted in Bootstraps and Total, not in Cost.
	AutoBootstrap bool
}

// ScheduleResult is the interpreter's output.
type ScheduleResult struct {
	Total      Cost
	PerStep    []StepCost
	Bootstraps int
	FinalLimbs int
}

// RunSchedule executes the schedule: operations are charged at the
// current limb count; whenever the level budget cannot cover a step's
// consumption, a bootstrap is inserted automatically (and charged),
// exactly as the application models do. The run starts at the fresh
// post-bootstrap level.
func (c Ctx) RunSchedule(s Schedule) (ScheduleResult, error) {
	bootTree, fresh := c.bootstrapTree()
	bootCost := bootTree.Total()
	if fresh < 2 {
		return ScheduleResult{}, fmt.Errorf("simfhe: parameters leave only %d limbs after bootstrapping", fresh)
	}

	var res ScheduleResult
	level := fresh
	for _, st := range s.Steps {
		if _, ok := opNames[st.Kind]; !ok {
			return ScheduleResult{}, fmt.Errorf("simfhe: unknown op kind %d", st.Kind)
		}
		if st.Count < 1 {
			return ScheduleResult{}, fmt.Errorf("simfhe: step %v has count %d", st.Kind, st.Count)
		}
		for i := 0; i < st.Count; i++ {
			sc := StepCost{Step: Step{Kind: st.Kind, Count: 1}}
			if level-st.Kind.levelCost() < 1 {
				sc.AutoBootstrap = true
				res.Total = res.Total.Plus(bootCost)
				res.Bootstraps++
				level = fresh
			}
			if st.Kind == OpBootstrap {
				sc.Tree, sc.Cost = bootTree, bootCost
				res.Bootstraps++
				level = fresh
			} else {
				sc.Tree = c.OpTree(st.Kind, level)
				sc.Cost = sc.Tree.Total()
				level -= st.Kind.levelCost()
			}
			sc.Limbs = level
			res.Total = res.Total.Plus(sc.Cost)
			res.PerStep = append(res.PerStep, sc)
		}
	}
	res.FinalLimbs = level
	return res, nil
}

// ParseSchedule reads the schedule DSL: one operation per line, an
// optional "xN" repetition suffix, '#' comments, and a leading optional
// "name:" directive. Example:
//
//	name: helr-iteration
//	mult x5
//	rotate x16   # rotate-and-sum ladders
//	ptmult x4
//	add x6
func ParseSchedule(r io.Reader) (Schedule, error) {
	var s Schedule
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "name:"); ok {
			s.Name = strings.TrimSpace(rest)
			continue
		}
		fields := strings.Fields(line)
		kind, ok := opByName[strings.ToLower(fields[0])]
		if !ok {
			return s, fmt.Errorf("line %d: unknown operation %q", lineNo, fields[0])
		}
		count := 1
		if len(fields) > 1 {
			spec := strings.TrimPrefix(fields[1], "x")
			v, err := strconv.Atoi(spec)
			if err != nil || v < 1 {
				return s, fmt.Errorf("line %d: bad repetition %q", lineNo, fields[1])
			}
			count = v
		}
		if len(fields) > 2 {
			return s, fmt.Errorf("line %d: trailing tokens after %q", lineNo, fields[1])
		}
		s.Steps = append(s.Steps, Step{Kind: kind, Count: count})
	}
	if err := scanner.Err(); err != nil {
		return s, err
	}
	if len(s.Steps) == 0 {
		return s, fmt.Errorf("simfhe: empty schedule")
	}
	return s, nil
}
