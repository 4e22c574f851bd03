package automata

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseDOT reads a Mealy machine from the Graphviz dot dialect DOT/DOTStyled
// emit: `sN` state nodes, an `__start -> sN` initial marker, and edges whose
// label lines are "input / output" transitions (one line per merged parallel
// edge). Style annotation lines — any label line without the " / "
// separator — are skipped, so styled exports (e.g. synth's register
// machines) parse back to their underlying Mealy machine.
//
// The exporter writes the input alphabet as an `/* alphabet: [...] */`
// comment; when present it is restored exactly (order included), making
// ParseDOT(m.DOT(name)) behaviourally equivalent to m with the identical
// alphabet. Without the comment the alphabet is recovered from the edges in
// first-appearance order, which still round-trips every machine whose
// inputs all appear on some edge.
//
// Input that is not valid UTF-8 is rejected: the JSON codec cannot carry
// such symbols, so accepting them would break the JSON round trip.
func ParseDOT(data []byte) (*Mealy, error) {
	if !utf8.Valid(data) {
		return nil, fmt.Errorf("automata: dot input is not valid UTF-8")
	}
	type rawEdge struct {
		from, to int
		lines    []string
	}
	var (
		inputs   []string
		haveAlph bool
		initial  = -1
		maxState = -1
		edges    []rawEdge
		ids      = map[int]bool{} // state ids on node lines and edge endpoints
	)
	seen := map[string]bool{}
	note := func(in string) {
		if !haveAlph && !seen[in] {
			seen[in] = true
			inputs = append(inputs, in)
		}
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "/* alphabet:"):
			body := strings.TrimSuffix(strings.TrimPrefix(line, "/* alphabet:"), "*/")
			if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &inputs); err != nil {
				return nil, fmt.Errorf("automata: line %d: bad alphabet comment: %w", ln+1, err)
			}
			if err := checkAlphabet(inputs); err != nil {
				return nil, err
			}
			haveAlph = true
		case strings.HasPrefix(line, "__start ->"):
			s, err := parseStateID(strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "__start ->")), ";"))
			if err != nil {
				return nil, fmt.Errorf("automata: line %d: %w", ln+1, err)
			}
			initial = s
			if s > maxState {
				maxState = s
			}
		case strings.Contains(line, "->"):
			parts := strings.SplitN(line, "->", 2)
			from, err := parseStateID(strings.TrimSpace(parts[0]))
			if err != nil {
				continue // not a state edge (e.g. styled extras)
			}
			rest := strings.TrimSpace(parts[1])
			brk := strings.IndexByte(rest, '[')
			if brk < 0 {
				continue
			}
			to, err := parseStateID(strings.TrimSpace(rest[:brk]))
			if err != nil {
				return nil, fmt.Errorf("automata: line %d: %w", ln+1, err)
			}
			label, err := extractLabel(rest[brk:])
			if err != nil {
				return nil, fmt.Errorf("automata: line %d: %w", ln+1, err)
			}
			ids[from], ids[to] = true, true
			maxState = max(maxState, from, to)
			edges = append(edges, rawEdge{from: from, to: to, lines: strings.Split(label, "\n")})
		case strings.HasPrefix(line, "s") && strings.Contains(line, "["):
			if s, err := parseStateID(line[:strings.IndexByte(line, '[')]); err == nil {
				ids[s] = true
				maxState = max(maxState, s)
			}
		}
	}
	if initial < 0 {
		return nil, fmt.Errorf("automata: dot input has no __start marker")
	}
	// The exporter writes a node line for every state, so a well-formed
	// input names at least as many distinct ids as the machine has states.
	// The bound keeps a tiny input from sizing a huge machine.
	if maxState >= len(ids) {
		return nil, fmt.Errorf("automata: state s%d exceeds the %d distinct state ids the input names", maxState, len(ids))
	}
	// First pass collects the alphabet when no comment declared it.
	for _, e := range edges {
		for _, l := range e.lines {
			if in, _, ok := splitTransitionLine(l); ok {
				note(in)
			}
		}
	}
	if err := checkSize(maxState+1, len(inputs), len(data)); err != nil {
		return nil, err
	}
	m := NewMealy(inputs)
	for m.NumStates() <= maxState {
		m.AddState()
	}
	m.SetInitial(State(initial))
	for _, e := range edges {
		for _, l := range e.lines {
			in, out, ok := splitTransitionLine(l)
			if !ok {
				continue // style annotation line
			}
			if !slices.Contains(inputs, in) {
				return nil, fmt.Errorf("automata: edge input %q not in declared alphabet", in)
			}
			m.SetTransition(State(e.from), in, State(e.to), out)
		}
	}
	return m, nil
}

// splitTransitionLine splits one "input / output" label line; annotation
// lines (no separator) report ok=false.
func splitTransitionLine(l string) (in, out string, ok bool) {
	i := strings.Index(l, " / ")
	if i < 0 {
		return "", "", false
	}
	return l[:i], l[i+3:], true
}

// parseStateID parses an "sN" node identifier.
func parseStateID(s string) (int, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "s") {
		return 0, fmt.Errorf("not a state id: %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("not a state id: %q", s)
	}
	return n, nil
}

// extractLabel pulls the unescaped label string out of an attribute list
// like `[label="..."];`.
func extractLabel(attrs string) (string, error) {
	i := strings.Index(attrs, `label="`)
	if i < 0 {
		return "", fmt.Errorf("edge without label in %q", attrs)
	}
	rest := attrs[i+len(`label="`):]
	for j := 0; j < len(rest); j++ {
		switch rest[j] {
		case '\\':
			j++ // skip the escaped character
		case '"':
			return unescapeDOT(rest[:j]), nil
		}
	}
	return "", fmt.Errorf("unterminated label in %q", attrs)
}

// Decode reads a model in either unified codec: JSON (the -save format) or
// Graphviz dot (the -dot format), sniffed from the first non-space byte.
func Decode(data []byte) (*Mealy, error) {
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		var m Mealy
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, err
		}
		return &m, nil
	}
	if strings.HasPrefix(trimmed, "digraph") {
		return ParseDOT(data)
	}
	return nil, fmt.Errorf("automata: unrecognised model format (want JSON or dot)")
}
