// PlanetLab probe: the paper's Internet measurement protocol on the
// synthetic 26-site mesh. A CBR prober measures a handful of paths twice —
// 48-byte and 400-byte packets — validates the pair, and aggregates the
// RTT-normalized inter-loss intervals into the Figure-4 style PDF.
//
//	go run ./examples/planetlab_probe
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/planetlab"
	"repro/internal/probe"
	"repro/internal/sim"
)

func main() {
	mesh := planetlab.NewMesh(7)
	pick := sim.NewRand(11)

	fmt.Println("probing 8 random directed paths of the 26-site mesh")
	fmt.Println("(two 60 s CBR runs each: 48 B and 400 B, cross-validated)")
	fmt.Println()

	var reports []*analysis.Report
	for len(reports) < 8 {
		i, j := mesh.RandomPair(pick)
		sched := sim.NewScheduler()
		path := mesh.NewPathProcess(i, j)
		m := probe.MeasurePath(sched, path, probe.RunConfig{Duration: 60 * sim.Second})
		status := "rejected"
		if m.Valid {
			status = "ok"
		}
		fmt.Printf("  %-28s -> %-28s rtt=%5.1fms loss=%.4f %s\n",
			short(mesh.Sites[i].Host), short(mesh.Sites[j].Host),
			path.Params.RTT.Seconds()*1e3, m.Small.LossRate(), status)
		if !m.Valid || len(m.Small.LossSendTimes) < 5 {
			continue
		}
		rep, err := analysis.Analyze(m.Small.LossSendTimes, m.Small.PathRTT, analysis.Config{})
		if err != nil {
			continue
		}
		reports = append(reports, rep)
	}

	merged, err := analysis.Merge(reports, analysis.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "planetlab_probe:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Printf("aggregate: %d losses over %d paths\n", merged.N, len(reports))
	fmt.Printf("within 0.01 RTT: %.0f%%   within 1 RTT: %.0f%%   (paper: 40%% / 60%%)\n",
		100*merged.FracBelow001, 100*merged.FracBelow1)
	fmt.Println()
	if err := core.WriteASCIIPDF(os.Stdout, merged, 20); err != nil {
		fmt.Fprintln(os.Stderr, "planetlab_probe:", err)
		os.Exit(1)
	}
}

func short(host string) string {
	if len(host) > 28 {
		return host[:28]
	}
	return host
}
