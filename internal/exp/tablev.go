package exp

import (
	"context"
	"math"

	"repro/internal/engine"
	"repro/internal/simpool"
	"repro/internal/stats"
)

// TableVResult is one validation row: published RTL and STONNE counts
// alongside this implementation's cycles and error.
type TableVResult struct {
	engine.TableVRow
	Got     uint64
	ErrRTL  float64 // (got-RTL)/RTL
	ErrOrig float64 // (got-original STONNE)/original
}

// TableVRun executes the eleven validation microbenchmarks, fanned over a
// simpool — each row is a self-contained engine run — and computes the
// error summary as a serial post-pass in row order.
func TableVRun(ctx context.Context, workers int) ([]TableVResult, float64, error) {
	rows := engine.TableV()
	runs, err := simpool.Map(ctx, workers, rows, func(_ context.Context, _ int, row engine.TableVRow) (*stats.Run, error) {
		return engine.RunTableVRow(row)
	})
	if err != nil {
		return nil, 0, err
	}
	out := make([]TableVResult, 0, len(rows))
	var sumAbs float64
	for i, row := range rows {
		run := runs[i]
		r := TableVResult{
			TableVRow: row,
			Got:       run.Cycles,
			ErrRTL:    (float64(run.Cycles) - float64(row.RTL)) / float64(row.RTL),
			ErrOrig:   (float64(run.Cycles) - float64(row.STONNE)) / float64(row.STONNE),
		}
		sumAbs += math.Abs(r.ErrRTL)
		out = append(out, r)
	}
	return out, sumAbs / float64(len(rows)), nil
}
