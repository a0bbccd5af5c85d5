package main

import (
	"fmt"

	"repro/internal/report"
)

// defaultSeed is the seed the committed digests were recorded with.
const defaultSeed = 1

// committedDigests are the tables digests of the grids a run on the
// default seed produces, keyed by workload and grid. train-fleet trains
// the same grids as train-smallcnn and must produce the same bytes.
var committedDigests = map[string]string{
	"train-smallcnn/grid-0": "de84764d060c8021",
	"train-resnet1/grid-0":  "838b2c66bb059292",
	"serve-warm/fixture-0":  "b163cf01efccd00d",
	"serve-warm/fixture-1":  "a758a4c188a685ec",
}

// digestKey names one committed digest.
func digestKey(workload, grid string) string {
	if workload == "train-fleet" {
		workload = "train-smallcnn"
	}
	return workload + "/" + grid
}

// checkDigest compares a default-seed result with its committed digest.
func (r *run) checkDigest(grid string, res *report.Result) {
	r.mu.Lock()
	r.digests = append(r.digests, [2]string{digestKey(r.name, grid), tablesDigest(res)})
	r.mu.Unlock()
	if r.seed != defaultSeed {
		return
	}
	want, ok := committedDigests[digestKey(r.name, grid)]
	if !ok {
		r.problem("no committed digest for %s", digestKey(r.name, grid))
		return
	}
	if got := tablesDigest(res); got != want {
		r.problem("%s: tables digest %s, committed %s", digestKey(r.name, grid), got, want)
	}
}

// checkPaper asserts the paper's findings on one trained grid: with the
// noise sources controlled (CONTROL) or on a deterministic part (TPUv2),
// replicas agree exactly — zero accuracy stddev, churn and weight
// distance. It returns the churn of the grid's V100 IMPL rows, where
// IMPL noise makes replicas disagree: with two replicas and a
// 160-example test split, an occasional grid ends with predictions that
// agree and weights that differ below the table's three decimals, so
// nonzero churn is asserted over a run's grids together.
func (r *run) checkPaper(res *report.Result, replicas int) float64 {
	if res == nil || len(res.Tables) != 1 {
		r.problem("grid result has no single table")
		return 0
	}
	t := res.Tables[0]
	col := map[string]int{}
	for i, h := range t.Headers {
		col[h] = i
	}
	for _, h := range []string{"device", "variant", "stddev(acc)", "churn(%)", "l2"} {
		if _, ok := col[h]; !ok {
			r.problem("grid table lacks column %q", h)
			return 0
		}
	}
	var total float64
	for _, row := range t.Rows {
		dev, v := row[col["device"]].Str, row[col["variant"]].Str
		std, churn, l2 := row[col["stddev(acc)"]].Float, row[col["churn(%)"]].Float, row[col["l2"]].Float
		name := fmt.Sprintf("%s %s", dev, v)
		switch {
		case v == "CONTROL" || (dev == "TPUv2" && v == "IMPL"):
			if std != 0 || churn != 0 || l2 != 0 {
				r.problem("%s: want stddev, churn and l2 all 0, got %g, %g, %g", name, std, churn, l2)
			}
		case dev == "V100" && v == "IMPL" && replicas >= 2:
			total += churn
		}
	}
	return total
}
