package adapter

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel causes an *Error can wrap; test with errors.Is.
var (
	// ErrDeadline marks a query that outlived Config.QueryTimeout. The
	// stream is desynced after a late reply, so a deadline always costs
	// a restart.
	ErrDeadline = errors.New("adapter: query deadline exceeded")
	// ErrRestartsExhausted marks a subprocess that died in more than
	// Config.MaxRestarts executions in a row.
	ErrRestartsExhausted = errors.New("adapter: restart budget exhausted")
)

// Operation names for Error.Op.
const (
	// OpStart is spawning or handshaking the subprocess.
	OpStart = "start"
	// OpReset is a RESET round-trip.
	OpReset = "reset"
	// OpQuery is a QUERY round-trip.
	OpQuery = "query"
	// OpExit is the subprocess dying (crash, kill, clean exit) while
	// the engine still needed it.
	OpExit = "exit"
	// OpAnswer is the adapter itself reporting ERR — a deliberate
	// protocol-level answer, not a transport failure, so the engine
	// surfaces it without restarting the subprocess or voiding the
	// execution.
	OpAnswer = "answer"
)

// Error is the typed adapter failure every SUL operation returns: which
// operation failed, against which command, why, and — when the
// subprocess died — the tail of its stderr. It wraps the underlying
// cause (ErrDeadline, a *ProtoError, an exec exit error), so errors.Is
// and errors.As keep working through it.
type Error struct {
	// Op is one of the Op* constants.
	Op string
	// Cmd is the adapter command line.
	Cmd string
	// Reason says what went wrong.
	Reason string
	// Stderr is the tail of the subprocess's stderr, when one died.
	Stderr string
	// Err is the underlying cause, if any.
	Err error
}

// Error implements error.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adapter %s", e.Op)
	if e.Cmd != "" {
		fmt.Fprintf(&b, " (%s)", e.Cmd)
	}
	if e.Reason != "" {
		b.WriteString(": ")
		b.WriteString(e.Reason)
	}
	if e.Err != nil {
		b.WriteString(": ")
		b.WriteString(e.Err.Error())
	}
	if e.Stderr != "" {
		fmt.Fprintf(&b, " [stderr: %s]", strings.TrimSpace(e.Stderr))
	}
	return b.String()
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }
