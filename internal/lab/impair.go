package lab

import (
	"context"
	"fmt"

	"repro/internal/netem"
)

// ImpairmentCell is one point of a fault grid: symmetric datagram loss
// plus response duplication and reordering rates.
type ImpairmentCell struct {
	Loss      float64
	Duplicate float64
	Reorder   float64
}

// Clean reports whether the cell injects no faults (the baseline cell).
func (c ImpairmentCell) Clean() bool { return c.Loss == 0 && c.Duplicate == 0 && c.Reorder == 0 }

// Config expands the cell into a netem config with the given fault seed.
func (c ImpairmentCell) Config(seed int64) netem.Config {
	return netem.Config{
		LossClient: c.Loss, LossServer: c.Loss,
		Duplicate: c.Duplicate, Reorder: c.Reorder,
		Seed: seed,
	}
}

// Name labels the cell for campaign runs and reports.
func (c ImpairmentCell) Name() string {
	if c.Clean() {
		return "clean"
	}
	return c.Config(0).Label()
}

// ImpairmentGrid crosses the given per-axis levels into cells (an empty
// axis means "only zero"), with the clean baseline cell first.
func ImpairmentGrid(losses, dups, reorders []float64) []ImpairmentCell {
	axis := func(levels []float64) []float64 {
		if len(levels) == 0 {
			return []float64{0}
		}
		return levels
	}
	cells := []ImpairmentCell{{}}
	for _, l := range axis(losses) {
		for _, d := range axis(dups) {
			for _, r := range axis(reorders) {
				c := ImpairmentCell{Loss: l, Duplicate: d, Reorder: r}
				if !c.Clean() {
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// CellVerdict is one grid cell's outcome, summarized against the clean
// baseline: did learning converge, to the same model, and at what voting
// cost?
type CellVerdict struct {
	Cell ImpairmentCell
	Run  RunResult

	// Learned is true when the run produced a model (false on error or a
	// §5 nondeterminism halt).
	Learned bool
	// Nondet is true when the guard gave up on a query — at high fault
	// rates the honest verdict for an implementation whose behaviour the
	// link makes unrecoverable (e.g. the lossy-retransmit target).
	Nondet bool
	// MatchesBaseline is true when the learned model is equivalent to the
	// clean baseline's — impairment was outvoted, not learned into the
	// model.
	MatchesBaseline bool
	// QueryInflation is this cell's live queries (including votes)
	// divided by the baseline's: what the link's flakiness cost.
	QueryInflation float64
	// Escalations and WastedVotes surface the guard's extra effort.
	Escalations int64
	WastedVotes int64
}

// MatrixResult is a finished impairment matrix: the clean baseline run and
// one verdict per impaired cell.
type MatrixResult struct {
	Baseline RunResult
	Cells    []CellVerdict
}

// ImpairmentMatrix builds the campaign that fans one target across a
// fault grid with per-cell isolation: every cell is an independent run
// (own replicas, own links, own guard state) so one cell's faults never
// leak into another. Cell 0 must be the clean baseline (as ImpairmentGrid
// returns); SummarizeMatrix interprets the results.
func ImpairmentMatrix(target string, base []Option, cells []ImpairmentCell, impairSeed int64) *Campaign {
	runs := make([]RunSpec, 0, len(cells))
	for _, cell := range cells {
		opts := append([]Option(nil), base...)
		if !cell.Clean() {
			opts = append(opts, WithImpairment(cell.Config(impairSeed)))
		}
		runs = append(runs, RunSpec{Name: cell.Name(), Target: target, Options: opts})
	}
	return &Campaign{Runs: runs}
}

// SummarizeMatrix folds positionally aligned campaign results back into
// per-cell verdicts against the baseline (cell 0).
func SummarizeMatrix(cells []ImpairmentCell, results []RunResult) (*MatrixResult, error) {
	if len(cells) != len(results) {
		return nil, fmt.Errorf("lab: %d cells but %d results", len(cells), len(results))
	}
	if len(cells) == 0 || !cells[0].Clean() {
		return nil, fmt.Errorf("lab: matrix needs the clean baseline as cell 0")
	}
	baseline := results[0]
	m := &MatrixResult{Baseline: baseline}
	for i := 1; i < len(cells); i++ {
		v := CellVerdict{Cell: cells[i], Run: results[i]}
		if res := results[i].Result; res != nil {
			v.Nondet = res.Nondet != nil
			v.Learned = res.Machine != nil
			rm := res.Metrics()
			v.Escalations = rm.Guard.Escalations
			v.WastedVotes = rm.Guard.WastedVotes
			if baseline.Result != nil && baseline.Result.Stats.Queries > 0 {
				v.QueryInflation = float64(res.Stats.Queries) / float64(baseline.Result.Stats.Queries)
			}
			if v.Learned && baseline.Result != nil && baseline.Result.Machine != nil {
				eq, _ := baseline.Result.Machine.Equivalent(res.Machine)
				v.MatchesBaseline = eq
			}
		}
		m.Cells = append(m.Cells, v)
	}
	return m, nil
}

// RunImpairmentMatrix is the one-shot helper: build the grid campaign,
// run it with the given parallelism, and summarize. The impairSeed drives
// every cell's fault streams (each cell further derives per-worker
// streams).
func RunImpairmentMatrix(ctx context.Context, target string, base []Option,
	cells []ImpairmentCell, parallelism int, impairSeed int64) (*MatrixResult, error) {
	camp := ImpairmentMatrix(target, base, cells, impairSeed)
	camp.Parallelism = parallelism
	results, err := camp.Run(ctx)
	if err != nil {
		return nil, err
	}
	return SummarizeMatrix(cells, results)
}
