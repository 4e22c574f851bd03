// Package synth implements §4.3 of the paper: synthesis of extended Mealy
// machines — learned Mealy machines enriched with integer registers whose
// update and output terms are recovered from the concrete traces cached in
// the Oracle Table.
//
// The paper encodes the search as SMT constraints solved by Z3. The
// constraint system is a finite-domain selection problem (each unknown term
// is one of a small list: a register, a register plus one, an input
// parameter, an input parameter plus one, or a constant) plus equalities
// over concrete trace values, so this package solves exactly the same
// system with a backtracking finite-domain solver with forward checking
// (see DESIGN.md, substitutions).
package synth

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/automata"
)

// TermKind enumerates the term grammar of §4.3.
type TermKind int

// Term kinds.
const (
	// Reg evaluates to register Index (post-update for outputs, pre-update
	// for updates).
	Reg TermKind = iota
	// RegPlusOne evaluates to register Index + 1.
	RegPlusOne
	// Input evaluates to input parameter Index of the current step.
	Input
	// InputPlusOne evaluates to input parameter Index + 1.
	InputPlusOne
	// Const evaluates to Value.
	Const
)

// Term is one candidate expression for an unknown.
type Term struct {
	Kind  TermKind
	Index int
	Value int64
}

// String renders the term with the paper's naming: registers r0, r1, ...;
// input parameters p0, p1, ...
func (t Term) String() string {
	switch t.Kind {
	case Reg:
		return fmt.Sprintf("r%d", t.Index)
	case RegPlusOne:
		return fmt.Sprintf("r%d+1", t.Index)
	case Input:
		return fmt.Sprintf("p%d", t.Index)
	case InputPlusOne:
		return fmt.Sprintf("p%d+1", t.Index)
	default:
		return fmt.Sprintf("%d", t.Value)
	}
}

// eval computes the term value given pre-state registers and input params.
func (t Term) eval(regs, in []int64) (int64, bool) {
	switch t.Kind {
	case Reg, RegPlusOne:
		if t.Index >= len(regs) {
			return 0, false
		}
		v := regs[t.Index]
		if t.Kind == RegPlusOne {
			v++
		}
		return v, true
	case Input, InputPlusOne:
		if t.Index >= len(in) {
			return 0, false
		}
		v := in[t.Index]
		if t.Kind == InputPlusOne {
			v++
		}
		return v, true
	default:
		return t.Value, true
	}
}

// Step is one element of a concrete trace: the abstract input symbol (which
// selects the machine transition), its numeric input parameters, and the
// observed numeric output parameters.
type Step struct {
	Input   string
	InVals  []int64
	OutVals []int64
}

// Trace is a concrete run of the system from its initial state.
type Trace []Step

// Problem is a synthesis instance.
type Problem struct {
	// Machine is the learned Mealy machine providing the control skeleton.
	Machine *automata.Mealy
	// NumRegisters is the number of registers to synthesize over.
	NumRegisters int
	// NumInputParams is the number of numeric parameters each input symbol
	// carries (e.g. 2 for TCP: sequence and acknowledgement numbers).
	NumInputParams int
	// OutputParams maps each abstract output symbol to the number of
	// numeric parameters the synthesized output terms must explain.
	// Symbols not present have no output unknowns.
	OutputParams map[string]int
	// InitRegs are the initial register values (defaults to zeros).
	InitRegs []int64
	// Consts are candidate constant terms (e.g. 0).
	Consts []int64
	// Positive are traces the synthesized machine must reproduce.
	Positive []Trace
	// Negative are traces the machine must NOT reproduce (added by the
	// refinement loop when random testing finds a discrepancy).
	Negative []Trace
}

// transKey identifies a transition of the skeleton.
type transKey struct {
	state automata.State
	input string
}

// ExtendedMealy is the synthesis result: per-transition register update and
// output terms over the control skeleton.
type ExtendedMealy struct {
	Machine  *automata.Mealy
	NumRegs  int
	InitRegs []int64
	Updates  map[transKey][]Term // one term per register
	Outputs  map[transKey][]Term // one term per output parameter
	problem  *Problem
}

// OutputsFor returns the output terms of transition (s, input).
func (e *ExtendedMealy) OutputsFor(s automata.State, input string) []Term {
	return e.Outputs[transKey{s, input}]
}

// DOT renders the extended machine through the shared automata exporter,
// in the style of the paper's Appendix B.1: every edge carries the abstract
// input/output pair plus its register-update and output-parameter
// annotations as one extra label line, e.g. "r0=p0 | o0=r0".
func (e *ExtendedMealy) DOT(name string) string {
	return e.Machine.DOTStyled(name, automata.DOTStyle{
		EdgeAnnotation: func(s automata.State, in, _ string) []string {
			k := transKey{s, in}
			var ann []string
			for i, u := range e.Updates[k] {
				ann = append(ann, fmt.Sprintf("r%d=%s", i, u))
			}
			for i, o := range e.Outputs[k] {
				ann = append(ann, fmt.Sprintf("o%d=%s", i, o))
			}
			if len(ann) == 0 {
				return nil
			}
			return []string{strings.Join(ann, " | ")}
		},
	})
}

// Run executes a trace's inputs through the extended machine and returns
// the predicted output parameter vectors, one per step.
func (e *ExtendedMealy) Run(tr Trace) ([][]int64, bool) {
	regs := append([]int64(nil), e.InitRegs...)
	state := e.Machine.Initial()
	var out [][]int64
	for _, step := range tr {
		next, _, ok := e.Machine.Step(state, step.Input)
		if !ok {
			return out, false
		}
		k := transKey{state, step.Input}
		newRegs := append([]int64(nil), regs...)
		for i, u := range e.Updates[k] {
			v, ok := u.eval(regs, step.InVals)
			if !ok {
				return out, false
			}
			newRegs[i] = v
		}
		regs = newRegs
		var vals []int64
		for _, o := range e.Outputs[k] {
			v, ok := o.eval(regs, step.InVals) // outputs see post-update registers
			if !ok {
				return out, false
			}
			vals = append(vals, v)
		}
		out = append(out, vals)
		state = next
	}
	return out, true
}

// String renders the machine in the style of Fig. 4 (right).
func (e *ExtendedMealy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ExtendedMealy(regs=%d, init=%v)\n", e.NumRegs, e.InitRegs)
	for s := 0; s < e.Machine.NumStates(); s++ {
		for _, in := range e.Machine.Inputs() {
			to, out, ok := e.Machine.Step(automata.State(s), in)
			if !ok {
				continue
			}
			k := transKey{automata.State(s), in}
			var ann []string
			for i, u := range e.Updates[k] {
				ann = append(ann, fmt.Sprintf("r%d=%s", i, u))
			}
			for i, o := range e.Outputs[k] {
				ann = append(ann, fmt.Sprintf("o%d=%s", i, o))
			}
			fmt.Fprintf(&b, "  s%d --%s/%s [%s]--> s%d\n", s, in, out, strings.Join(ann, ", "), to)
		}
	}
	return b.String()
}

// ErrUnsatisfiable is returned when no assignment of terms explains the
// traces.
var ErrUnsatisfiable = errors.New("synth: no term assignment satisfies the traces")

// slot is one unknown: either an update (reg >= 0) or an output param.
type slot struct {
	key    transKey
	reg    int // register index for updates, -1 for outputs
	outIdx int // output parameter index, -1 for updates
}

// Synthesize solves the problem and returns an extended machine consistent
// with all positive traces and inconsistent with every negative trace.
func Synthesize(p *Problem) (*ExtendedMealy, error) {
	if p.Machine == nil {
		return nil, errors.New("synth: problem needs a machine")
	}
	init := p.InitRegs
	if init == nil {
		init = make([]int64, p.NumRegisters)
	}
	if len(init) != p.NumRegisters {
		return nil, fmt.Errorf("synth: %d initial values for %d registers", len(init), p.NumRegisters)
	}

	// Collect unknown slots for transitions actually exercised by traces,
	// in first-use order so forward checking prunes early.
	slots, keyOrder := collectSlots(p)
	updateDomain, outputDomain := domains(p)

	asn := &assignment{
		updates: make(map[transKey][]Term, len(keyOrder)),
		outputs: make(map[transKey][]Term, len(keyOrder)),
	}
	for _, k := range keyOrder {
		asn.updates[k] = make([]Term, p.NumRegisters)
		asn.outputs[k] = make([]Term, outputArity(p, k))
		for i := range asn.updates[k] {
			asn.updates[k][i] = Term{Kind: Reg, Index: i} // placeholder
		}
	}
	lastSlot := make(map[transKey]int, len(keyOrder))
	for i, sl := range slots {
		lastSlot[sl.key] = i
	}
	solver := &solver{p: p, init: init, slots: slots, asn: asn, lastSlot: lastSlot,
		updateDomain: updateDomain, outputDomain: outputDomain}
	if !solver.solve(0) {
		return nil, ErrUnsatisfiable
	}
	return &ExtendedMealy{
		Machine: p.Machine, NumRegs: p.NumRegisters, InitRegs: init,
		Updates: asn.updates, Outputs: asn.outputs, problem: p,
	}, nil
}

// outputArity returns the number of output parameters for transition k.
func outputArity(p *Problem, k transKey) int {
	_, out, ok := p.Machine.Step(k.state, k.input)
	if !ok {
		return 0
	}
	return p.OutputParams[out]
}

// collectSlots walks all traces and gathers unknowns in first-use order.
func collectSlots(p *Problem) ([]slot, []transKey) {
	var slots []slot
	var order []transKey
	seen := make(map[transKey]bool)
	addKey := func(k transKey) {
		if seen[k] {
			return
		}
		seen[k] = true
		order = append(order, k)
		for r := 0; r < p.NumRegisters; r++ {
			slots = append(slots, slot{key: k, reg: r, outIdx: -1})
		}
		for o := 0; o < outputArity(p, k); o++ {
			slots = append(slots, slot{key: k, reg: -1, outIdx: o})
		}
	}
	walk := func(tr Trace) {
		state := p.Machine.Initial()
		for _, step := range tr {
			next, _, ok := p.Machine.Step(state, step.Input)
			if !ok {
				return
			}
			addKey(transKey{state, step.Input})
			state = next
		}
	}
	for _, tr := range p.Positive {
		walk(tr)
	}
	for _, tr := range p.Negative {
		walk(tr)
	}
	return slots, order
}

// domains builds the candidate term lists. Update terms try registers
// first (state usually persists); output terms try constants first, so a
// field that is genuinely constant is reported as such — the Issue 4
// analysis depends on the constant explanation winning over coincidental
// matches with zero-valued inputs.
func domains(p *Problem) (updates, outputs []Term) {
	for r := 0; r < p.NumRegisters; r++ {
		updates = append(updates, Term{Kind: Reg, Index: r}, Term{Kind: RegPlusOne, Index: r})
	}
	for i := 0; i < p.NumInputParams; i++ {
		updates = append(updates, Term{Kind: Input, Index: i}, Term{Kind: InputPlusOne, Index: i})
	}
	for _, c := range p.Consts {
		updates = append(updates, Term{Kind: Const, Value: c})
	}
	for _, c := range p.Consts {
		outputs = append(outputs, Term{Kind: Const, Value: c})
	}
	for r := 0; r < p.NumRegisters; r++ {
		outputs = append(outputs, Term{Kind: Reg, Index: r}, Term{Kind: RegPlusOne, Index: r})
	}
	for i := 0; i < p.NumInputParams; i++ {
		outputs = append(outputs, Term{Kind: Input, Index: i}, Term{Kind: InputPlusOne, Index: i})
	}
	return updates, outputs
}

type assignment struct {
	updates map[transKey][]Term
	outputs map[transKey][]Term
}

type solver struct {
	p            *Problem
	init         []int64
	slots        []slot
	asn          *assignment
	lastSlot     map[transKey]int // index of each key's final slot
	updateDomain []Term
	outputDomain []Term
}

// solve assigns slots[idx:] by depth-first search with forward checking.
func (s *solver) solve(idx int) bool {
	if idx == len(s.slots) {
		return s.consistent(len(s.slots))
	}
	sl := s.slots[idx]
	domain := s.updateDomain
	if sl.reg < 0 {
		domain = s.outputDomain
	}
	for _, t := range domain {
		if sl.reg >= 0 {
			s.asn.updates[sl.key][sl.reg] = t
		} else {
			s.asn.outputs[sl.key][sl.outIdx] = t
		}
		if s.consistent(idx+1) && s.solve(idx+1) {
			return true
		}
	}
	// Restore a neutral placeholder for updates so later simulation of
	// unassigned slots stays well-defined.
	if sl.reg >= 0 {
		s.asn.updates[sl.key][sl.reg] = Term{Kind: Reg, Index: sl.reg}
	}
	return false
}

// consistent simulates all traces using the slots assigned so far (the
// first `assigned` slots). Positive traces must match observed outputs on
// every step whose unknowns are all assigned; a trace is only checked up to
// the first step that uses an unassigned slot. Negative traces must differ
// somewhere once fully assigned.
func (s *solver) consistent(assigned int) bool {
	done := func(k transKey) bool {
		last, ok := s.lastSlot[k]
		return ok && last < assigned
	}
	for _, tr := range s.p.Positive {
		ok, _ := s.checkTrace(tr, done)
		if !ok {
			return false
		}
	}
	if assigned == len(s.slots) {
		for _, tr := range s.p.Negative {
			matched, complete := s.checkTrace(tr, done)
			if matched && complete {
				return false // the machine must not reproduce a negative trace
			}
		}
	}
	return true
}

// checkTrace simulates tr; it returns ok=false if an assigned output term
// contradicts an observed value. complete reports whether every step was
// fully checked (no unassigned transitions encountered).
func (s *solver) checkTrace(tr Trace, done func(transKey) bool) (ok, complete bool) {
	regs := append([]int64(nil), s.init...)
	state := s.p.Machine.Initial()
	for _, step := range tr {
		next, _, has := s.p.Machine.Step(state, step.Input)
		if !has {
			return true, false
		}
		k := transKey{state, step.Input}
		if !done(k) {
			return true, false // cannot check further: later regs unknown
		}
		newRegs := append([]int64(nil), regs...)
		for i, u := range s.asn.updates[k] {
			v, evalOK := u.eval(regs, step.InVals)
			if !evalOK {
				return false, false
			}
			newRegs[i] = v
		}
		regs = newRegs
		outs := s.asn.outputs[k]
		if len(outs) > 0 {
			if len(step.OutVals) < len(outs) {
				return false, false
			}
			for i, o := range outs {
				v, evalOK := o.eval(regs, step.InVals)
				if !evalOK || v != step.OutVals[i] {
					return false, false
				}
			}
		}
		state = next
	}
	return true, true
}
