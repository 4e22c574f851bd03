// Command prognosis is the closed-box protocol analysis tool: it learns
// Mealy-machine models of protocol implementations and analyses them on
// the unified analysis plane.
//
// Subcommands:
//
//	prognosis learn  -target google [-learner ttt|lstar] [-seed N] [-perfect]
//	                 [-conformance D] [-dot model.dot] [-save model.json]
//	                 [-property '<LTLf>'] [-udp] [-no-cache] [-workers N]
//	                 [-rtt D] [-loss P] [-dup P] [-reorder P] [-impair-seed N]
//	                 [-v] [-events out.jsonl]
//	prognosis diff   [options] <targetA> <targetB>
//	prognosis check  -target <name> | -model <file> [options]
//	prognosis export -target <name> | -model <file> [-dot F] [-json F] [-min]
//	prognosis regress [-manifest F] [-store dir] [-targets a,b]
//	                 [-witness-dir dir] [-workers N]
//	prognosis monitor [-manifest F] [-data dir] [-targets a,b]
//	                 [-interval D] [-workers N]
//	prognosis reproduce [-seed N] [-workers N] [-window N] [-parallel N] [-impair T]
//
// `learn` learns one target and reports model statistics. `diff` learns
// two targets concurrently (by default through a mildly impaired link, so
// loss-recovery divergences surface), prints witness traces plus
// per-state divergence summaries, and replays the first witness against
// both live targets. `check` verifies the builtin model-level property
// set (and optional LTLf formulas), exiting nonzero on violation.
// `export` writes models in the unified DOT/JSON codecs. `regress` is the
// CI model-regression gate: it relearns every target in a manifest —
// warm-started from the persistent query store named by -store, so
// unchanged targets cost a fraction of a cold learn — and diffs each
// against its checked-in golden model, exiting nonzero with the shortest
// distinguishing witness on any behavioural drift (docs/REGRESSION.md).
// `monitor` runs continuous drift-monitor cycles: every manifest cell is
// warm-relearned, snapshotted with query-log lineage under -data, and
// compared against its previous snapshot, raising a drift alarm only
// when the shortest witness reproduces live (docs/MONITORING.md). With
// -interval it keeps cycling; without, one cycle runs and the command
// exits nonzero if any alarm fired. `reproduce` prints the paper's §6
// table, paper value next to measured (-impair: one target's impairment
// matrix instead).
//
// Targets: every name in the lab registry — the in-process targets tcp,
// tcp-sack, google, google-fixed, quiche, mvfst, lossy-retransmit, and
// quic-vn, plus adapter, which drives an external implementation over the
// stdio adapter protocol (-adapter-cmd). Ctrl-C cancels a run cleanly
// mid-round. Invoking prognosis with learn-style flags and no subcommand
// (e.g. `prognosis -target tcp`) behaves like `learn`, matching the
// pre-subcommand interface; a bare `prognosis` prints usage. See
// docs/ANALYSIS.md.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() { os.Exit(cli.Main(os.Args[1:], os.Stderr)) }
