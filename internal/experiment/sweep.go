package experiment

import (
	"context"
	"fmt"

	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/stats"
	"adhocga/internal/tournament"
)

// CSNSweepContext generalizes the paper's four fixed environments into a curve:
// evolved cooperation as a function of the number of constantly selfish
// nodes in a 50-player tournament. The paper samples this curve at 0, 10,
// 25 and 30 (Tab 1); sweeping it densely locates where cooperation
// collapses.

// SweepPoint is one sweep sample.
type SweepPoint struct {
	CSN         int
	Cooperation stats.Summary // final-generation cooperation across reps
}

// CSNSweepContext runs one single-environment evolution per CSN count and
// returns the evolved cooperation level at each. All (point × replicate)
// pairs are flattened into one shared worker pool, so workers cross sweep
// points without a barrier and stay busy even when repetitions are fewer
// than cores. Deterministic for a fixed seed — each point's master seed is
// derived in csnCounts order, so results are bit-identical to running the
// points one by one. Cancellation follows the RunCaseContext contract.
func CSNSweepContext(ctx context.Context, csnCounts []int, mode network.PathMode, sc Scale, opts Options) ([]SweepPoint, error) {
	master := rng.New(opts.Seed)
	jobs := make([]job, 0, len(csnCounts))
	for _, csn := range csnCounts {
		if csn < 0 || csn >= 50 {
			return nil, fmt.Errorf("experiment: CSN count %d outside [0,50)", csn)
		}
		c := Case{
			ID:           0,
			Name:         fmt.Sprintf("sweep CSN=%d", csn),
			Environments: []tournament.Environment{{Name: fmt.Sprintf("CSN%d", csn), CSN: csn}},
			Mode:         mode,
		}
		jobs = append(jobs, caseJob(c, sc, master.Uint64()))
	}
	results, err := runJobs(ctx, jobs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(csnCounts))
	for i, res := range results {
		out[i] = SweepPoint{CSN: csnCounts[i], Cooperation: res.FinalCoop}
	}
	return out, nil
}

// SweepToSeries converts sweep points to an (x, y) pair of slices for
// plotting or CSV output.
func SweepToSeries(points []SweepPoint) (csn []float64, coop []float64) {
	csn = make([]float64, len(points))
	coop = make([]float64, len(points))
	for i, p := range points {
		csn[i] = float64(p.CSN)
		coop[i] = p.Cooperation.Mean
	}
	return csn, coop
}
