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
// Schedule is a leveled CKKS program over the Table 2 primitives; its one
// interpreter, RunSchedule, tracks the level (rescaling operations
// descend the modulus chain, bootstrapping restores it) and charges each
// operation at the limb count it actually executes with.

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
	if k == OpMult || k == OpPtMult || k == OpRescale {
		return 1
	}
	return 0
}

func (k OpKind) String() string { return opNames[k] }

// Step is one batch of a unit: Count instances of one operation, run
// Depth levels below the level the unit enters at.
type Step struct {
	Kind  OpKind
	Count int
	Depth int
}

// Unit is a block of batches that enters at one level, such as one
// training iteration or one network layer. A bootstrap is a unit of its
// own: one OpBootstrap batch at depth 0.
type Unit []Step

// Depth returns the levels the unit consumes: the deepest batch's Depth
// plus that batch's own level cost.
func (u Unit) Depth() int {
	d := 0
	for _, st := range u {
		d = max(d, st.Depth+st.Kind.levelCost())
	}
	return d
}

// Schedule is a leveled CKKS program: its units run in sequence.
type Schedule struct {
	Name  string
	Units []Unit
}

// StepCost pairs one executed batch with the attribution tree of one of
// its operations and the cost charged for the whole batch (the tree's
// total times Count).
type StepCost struct {
	Step Step
	Cost Cost
	Tree *CostTree
	// AutoBootstrap marks the first batch of a unit the interpreter had
	// to bootstrap before; that bootstrap is counted in Bootstraps and
	// Total, not in Cost.
	AutoBootstrap bool
}

// ScheduleResult is the interpreter's output.
type ScheduleResult struct {
	Total      Cost
	PerStep    []StepCost
	Bootstraps int
	FinalLimbs int
}

// RunSchedule executes the schedule from the fresh post-bootstrap level.
// Before a unit that would leave fewer than one limb it inserts (and
// charges) a bootstrap; a unit deeper than a fresh budget is an error.
// Each batch is charged at the unit's entry level minus its Depth, and
// the unit then drops the level by its Depth.
func (c Ctx) RunSchedule(s Schedule) (ScheduleResult, error) {
	plan := c.P.BootPlan()
	bootTree, fresh := c.PlanTree(plan), plan.LevelAfter+1
	bootCost := bootTree.Total()
	if fresh < 2 {
		return ScheduleResult{}, fmt.Errorf("simfhe: parameters leave only %d limbs after bootstrapping", fresh)
	}

	var res ScheduleResult
	level := fresh
	for _, u := range s.Units {
		for _, st := range u {
			if _, ok := opNames[st.Kind]; !ok || st.Count < 1 || st.Depth < 0 {
				return ScheduleResult{}, fmt.Errorf("simfhe: bad step %+v", st)
			}
			if st.Kind == OpBootstrap && (len(u) > 1 || st.Depth > 0) {
				return ScheduleResult{}, fmt.Errorf("simfhe: a bootstrap must be its unit's only batch, at depth 0")
			}
		}
		depth := u.Depth()
		if depth >= fresh {
			return ScheduleResult{}, fmt.Errorf("simfhe: a unit %d levels deep does not fit the %d limbs a bootstrap leaves", depth, fresh)
		}
		auto := level-depth < 1
		if auto {
			res.Total = res.Total.Plus(bootCost)
			res.Bootstraps++
			level = fresh
		}
		for i, st := range u {
			sc := StepCost{Step: st, AutoBootstrap: auto && i == 0}
			if st.Kind == OpBootstrap {
				sc.Tree = bootTree
				res.Bootstraps += st.Count
				level = fresh
			} else {
				sc.Tree = c.OpTree(st.Kind, level-st.Depth)
			}
			sc.Cost = sc.Tree.Total().Times(st.Count)
			res.Total = res.Total.Plus(sc.Cost)
			res.PerStep = append(res.PerStep, sc)
		}
		level -= depth
	}
	res.FinalLimbs = level
	return res, nil
}

// ParseSchedule reads the schedule DSL: one operation per line, an
// optional "xN" repetition suffix, '#' comments, and a leading optional
// "name:" directive. Every operation instance becomes a single-op unit,
// so the program runs strictly in sequence. Example:
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
		for range count {
			s.Units = append(s.Units, Unit{{Kind: kind, Count: 1}})
		}
	}
	if err := scanner.Err(); err != nil {
		return s, err
	}
	if len(s.Units) == 0 {
		return s, fmt.Errorf("simfhe: empty schedule")
	}
	return s, nil
}
