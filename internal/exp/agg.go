package exp

import (
	"math"

	"repro/internal/analysis"
)

// Estimate is a sample mean with a 95% confidence half-width from the
// Student t distribution — the standard way to report "mean ± CI over R
// replications" for a simulation study.
type Estimate struct {
	Mean float64
	// CI95 is the half-width of the 95% confidence interval for the mean;
	// 0 when fewer than two samples exist.
	CI95 float64
	N    int
}

// EstimateOf summarizes one metric across replications.
func EstimateOf(xs []float64) Estimate {
	e := Estimate{N: len(xs)}
	if len(xs) == 0 {
		return e
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	e.Mean = sum / float64(len(xs))
	if len(xs) < 2 {
		return e
	}
	var ss float64
	for _, x := range xs {
		d := x - e.Mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	e.CI95 = tCrit95(len(xs)-1) * sd / math.Sqrt(float64(len(xs)))
	return e
}

// tCrit95 is the two-sided 95% Student t critical value for df degrees of
// freedom. Sweeps replicate a handful of times, so small df dominates.
func tCrit95(df int) float64 {
	table := [...]float64{ // df 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df < 1 {
		return 0
	}
	if df <= len(table) {
		return table[df-1]
	}
	return 1.96
}

// ReportSummary aggregates the headline metrics of replicated
// analysis.Reports: each field is the mean ± 95% CI of that metric across
// replications.
type ReportSummary struct {
	Replications int

	Losses       Estimate // events analyzed per replication
	Lambda       Estimate // loss arrival rate, events/RTT
	FracBelow001 Estimate
	FracBelow025 Estimate
	FracBelow1   Estimate
	CoV          Estimate
	KSDistance   Estimate

	// RejectFrac is the fraction of replications whose KS test rejects the
	// Poisson hypothesis at α = 0.05.
	RejectFrac float64
}

// SummarizeReports aggregates replicated reports. Nil reports are skipped,
// so callers can pass partially failed sweeps.
func SummarizeReports(reports []*analysis.Report) ReportSummary {
	var (
		losses, lambda, f001, f025, f1, cov, ks []float64
		rejects                                 int
	)
	for _, r := range reports {
		if r == nil {
			continue
		}
		losses = append(losses, float64(r.N))
		lambda = append(lambda, r.Lambda)
		f001 = append(f001, r.FracBelow001)
		f025 = append(f025, r.FracBelow025)
		f1 = append(f1, r.FracBelow1)
		cov = append(cov, r.CoV)
		ks = append(ks, r.KSDistance)
		if r.RejectsPoisson {
			rejects++
		}
	}
	s := ReportSummary{
		Replications: len(losses),
		Losses:       EstimateOf(losses),
		Lambda:       EstimateOf(lambda),
		FracBelow001: EstimateOf(f001),
		FracBelow025: EstimateOf(f025),
		FracBelow1:   EstimateOf(f1),
		CoV:          EstimateOf(cov),
		KSDistance:   EstimateOf(ks),
	}
	if s.Replications > 0 {
		s.RejectFrac = float64(rejects) / float64(s.Replications)
	}
	return s
}
