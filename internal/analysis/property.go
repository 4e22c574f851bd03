package analysis

import (
	"fmt"
	"strings"

	"repro/internal/automata"
	"repro/internal/quicsim"
)

// Property is a model-level requirement checked exhaustively against a
// learned model: where a packet-trace check sees one recorded trace, a
// Property explores every behaviour of the model and returns a shortest
// concrete witness when the model can violate it. Absence of a violation is
// a guarantee about the model (and, to the extent the model is faithful,
// about the implementation — the paper's §5 workflow replays witnesses
// against the live target to confirm).
type Property interface {
	Name() string
	// Describe states the requirement in one sentence.
	Describe() string
	// Check returns a shortest violation witness, or nil when the model
	// satisfies the property.
	Check(m *Model) *PropertyViolation
}

// PropertyViolation is a failed property with its witness trace.
type PropertyViolation struct {
	Property string
	Witness  Witness
	// Detail explains what the final step did wrong.
	Detail string
}

// Error renders the violation.
func (v *PropertyViolation) Error() string {
	last := ""
	if n := len(v.Witness.Word); n > 0 {
		last = fmt.Sprintf(" at step %d (%s / %s)", n, v.Witness.Word[n-1], v.Witness.Outputs[n-1])
	}
	return fmt.Sprintf("analysis: %s violated%s: %s", v.Property, last, v.Detail)
}

// MonitorProperty is a safety property given as a finite monitor automaton
// over the model's I/O steps: Step consumes one (input, output) pair in
// monitor state s and returns the next monitor state, or ok=false to flag a
// violation. Check explores the product of the model and the monitor
// breadth-first, so the returned witness is a shortest violating word.
// Monitor states are small ints managed by the property; Step must keep
// them within a finite set for the product to terminate.
type MonitorProperty struct {
	PropName string
	Info     string
	Start    int
	Step     func(state int, input, output string) (next int, ok bool)
	// Detail renders the violation message for the failing step (optional).
	Detail func(input, output string) string
}

// Name implements Property.
func (p *MonitorProperty) Name() string { return p.PropName }

// Describe implements Property.
func (p *MonitorProperty) Describe() string { return p.Info }

// Check implements Property.
func (p *MonitorProperty) Check(m *Model) *PropertyViolation {
	mealy := m.Mealy()
	type pair struct {
		ms automata.State
		ps int
	}
	type node struct {
		p    pair
		word []string
		outs []string
	}
	start := pair{mealy.Initial(), p.Start}
	seen := map[pair]bool{start: true}
	queue := []node{{p: start}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, in := range mealy.Inputs() {
			ms, out, ok := mealy.Step(cur.p.ms, in)
			if !ok {
				continue
			}
			word := append(append([]string(nil), cur.word...), in)
			outs := append(append([]string(nil), cur.outs...), out)
			ps, accept := p.Step(cur.p.ps, in, out)
			if !accept {
				detail := "monitor rejected"
				if p.Detail != nil {
					detail = p.Detail(in, out)
				}
				return &PropertyViolation{
					Property: p.PropName,
					Witness:  Witness{Word: word, Outputs: outs},
					Detail:   detail,
				}
			}
			np := pair{ms, ps}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, node{p: np, word: word, outs: outs})
			}
		}
	}
	return nil
}

// PropertyResult is one property's outcome in a CheckAll run.
type PropertyResult struct {
	Property  Property
	Violation *PropertyViolation
}

// OK reports whether the property held.
func (r PropertyResult) OK() bool { return r.Violation == nil }

// CheckAll checks every property against the model (Builtins() when none
// are given), returning one result per property in order.
func CheckAll(m *Model, props ...Property) []PropertyResult {
	if len(props) == 0 {
		props = Builtins()
	}
	results := make([]PropertyResult, 0, len(props))
	for _, p := range props {
		results = append(results, PropertyResult{Property: p, Violation: p.Check(m)})
	}
	return results
}

// Violations filters a CheckAll run down to the failures.
func Violations(results []PropertyResult) []*PropertyViolation {
	var out []*PropertyViolation
	for _, r := range results {
		if r.Violation != nil {
			out = append(out, r.Violation)
		}
	}
	return out
}

// Silent is the abstract output symbol for "the implementation sent
// nothing" in the paper's QUIC alphabet.
const Silent = "{}"

// packetCount counts the packets in an abstract output symbol like
// "{SHORT(?,?)[ACK,STREAM],SHORT(?,?)[ACK,STREAM]}" — each packet carries
// exactly one [...] frame list.
func packetCount(output string) int { return strings.Count(output, "[") }

// Builtins returns the built-in model-level property set, the Φ input of
// Fig. 1 lifted from packet traces to learned models. Every builtin is
// vacuously satisfied by models whose vocabulary the property does not
// mention (the TCP model has no CONNECTION_CLOSE output, for example), so
// the whole set is checked against every target.
func Builtins() []Property {
	return []Property{
		CloseIsTerminal(),
		OutputRequiresInput("HANDSHAKE_DONE requires a handshake",
			"HANDSHAKE_DONE", quicsim.SymHandshakeC),
		OutputRequiresInput("STREAM_DATA_BLOCKED requires stream data",
			"STREAM_DATA_BLOCKED", quicsim.SymShortStream),
		AtMostOncePerFlight("HANDSHAKE_DONE"),
		// quic-vn: a server must only fall back to Version Negotiation when
		// the client actually probed with an unknown version (RFC 9000 §6).
		OutputRequiresInput("VERSION_NEGOTIATION requires a bad-version probe",
			"VERSION_NEGOTIATION", quicsim.SymInitialBadVer),
		// quic targets with address validation: a Retry can only answer an
		// Initial (it is the admission step of a new connection).
		OutputRequiresInput("RETRY requires an Initial",
			"RETRY", quicsim.SymInitialCrypto, quicsim.SymInitialHD),
		// tcp-sack: SACK blocks report out-of-order data, so they require a
		// prior out-of-order probe ("[SACK]" is the block option alone; the
		// negotiation echo renders as "[SACKOK,WS]" and does not match).
		OutputRequiresInput("SACK blocks require out-of-order data",
			"[SACK]", "ACK+PSH(?,?,1)[OOO]"),
		// tcp-sack: the SYN+ACK echoes SACK-permitted only when the client
		// SYN offered it.
		OutputRequiresInput("SACK negotiation requires a SACK-permitted SYN",
			"[SACKOK", "SYN(?,?,0)[SACKOK]"),
	}
}

// CloseIsTerminal is the model-level close discipline of RFC 9000 §10.2:
// once the model has emitted an output containing CONNECTION_CLOSE, every
// later response is either silence or a single packet that itself carries
// CONNECTION_CLOSE (one close retransmission per probe). The
// lossy-retransmit target's degraded mode — every flight sent twice —
// violates exactly this: its closed states answer probes with doubled
// CONNECTION_CLOSE packets.
func CloseIsTerminal() Property {
	const (
		open = iota
		closing
	)
	return &MonitorProperty{
		PropName: "close-is-terminal",
		Info:     "after CONNECTION_CLOSE: silence or a single CONNECTION_CLOSE packet per probe",
		Start:    open,
		Step: func(s int, _, out string) (int, bool) {
			closeOut := strings.Contains(out, "CONNECTION_CLOSE")
			if s == closing && out != Silent {
				if !closeOut || packetCount(out) != 1 {
					return s, false
				}
			}
			if closeOut {
				return closing, true
			}
			return s, true
		},
		Detail: func(_, out string) string {
			if !strings.Contains(out, "CONNECTION_CLOSE") {
				return fmt.Sprintf("post-close response %s carries no CONNECTION_CLOSE", out)
			}
			return fmt.Sprintf("post-close response %s is %d packets, want 1", out, packetCount(out))
		},
	}
}

// OutputRequiresInput requires that any output containing outFrag is only
// emitted at or after a step whose input is one of inputs — "output X
// implies prior input Y". Models whose alphabet lacks every required input
// satisfy it vacuously unless they emit the fragment anyway (which is then
// a genuine violation).
func OutputRequiresInput(name, outFrag string, inputs ...string) Property {
	const (
		waiting = iota
		enabled
	)
	inputSet := map[string]bool{}
	for _, in := range inputs {
		inputSet[in] = true
	}
	return &MonitorProperty{
		PropName: name,
		Info:     fmt.Sprintf("an output containing %q requires a prior %v input", outFrag, inputs),
		Start:    waiting,
		Step: func(s int, in, out string) (int, bool) {
			if inputSet[in] {
				s = enabled
			}
			if s == waiting && strings.Contains(out, outFrag) {
				return s, false
			}
			return s, true
		},
		Detail: func(in, out string) string {
			return fmt.Sprintf("%s emitted on input %s before any of %v", outFrag, in, inputs)
		},
	}
}

// AtMostOncePerFlight requires that no single response flight contains the
// fragment more than once — the retransmission-bug detector: a server that
// "recovers" by double-sending emits flights with duplicated
// HANDSHAKE_DONE packets.
func AtMostOncePerFlight(frag string) Property {
	return &MonitorProperty{
		PropName: fmt.Sprintf("%s at most once per flight", frag),
		Info:     fmt.Sprintf("no response flight carries %q more than once", frag),
		Start:    0,
		Step: func(s int, _, out string) (int, bool) {
			return s, strings.Count(out, frag) <= 1
		},
		Detail: func(_, out string) string {
			return fmt.Sprintf("flight %s carries %s %d times", out, frag, strings.Count(out, frag))
		},
	}
}
