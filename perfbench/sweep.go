package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tele3d/tele3d/internal/experiments"
	"github.com/tele3d/tele3d/internal/metrics"
)

// sweepSpec describes the paper sweep that ends every run.
type sweepSpec struct {
	samples int
	// minSweeps is the least number of full sweeps a pass makes, even
	// past its time budget.
	minSweeps int
	// goldenDir holds the committed figure goldens.
	goldenDir string
}

// The golden files pin the figures at this sample count and seed (see
// internal/experiments/golden_test.go); the benchmark checks the same.
const (
	goldenSamples     = 8
	goldenSeed        = 1
	goldenParallelism = 4
)

// figure is one public Runner call of the sweep.
type figure struct {
	name   string // per-layer metric stem and golden file name
	xLabel string
	golden bool
	run    func(r *experiments.Runner) ([]metrics.Series, error)
}

func fig8(v experiments.Fig8Variant) func(r *experiments.Runner) ([]metrics.Series, error) {
	return func(r *experiments.Runner) ([]metrics.Series, error) { return r.Fig8(v) }
}

// figures lists every call that regenerates a paper figure, in the
// order tisim -fig all runs them, plus the churn sweep.
var figures = []figure{
	{"fig8a", "N", true, fig8(experiments.Fig8a)},
	{"fig8b", "N", true, fig8(experiments.Fig8b)},
	{"fig8c", "N", true, fig8(experiments.Fig8c)},
	{"fig8d", "N", true, fig8(experiments.Fig8d)},
	{"fig9", "g", true, func(r *experiments.Runner) ([]metrics.Series, error) {
		s, err := r.Fig9()
		return []metrics.Series{s}, err
	}},
	{"fig10", "N", true, (*experiments.Runner).Fig10},
	{"fig11", "N", true, (*experiments.Runner).Fig11},
	{"ablation_dynamic", "x", false, (*experiments.Runner).AblationDynamic},
	{"ablation_reservation", "mode", false, (*experiments.Runner).AblationReservation},
	{"ablation_join_policy", "x", false, (*experiments.Runner).AblationJoinPolicy},
	{"churn", "N", true, func(r *experiments.Runner) ([]metrics.Series, error) { return r.ChurnSweep(4, 0.7) }},
}

// sweepPass is what one pass over the sweep measured.
type sweepPass struct {
	sweeps int
	callMs map[string][]float64
	calls  int
	checks
}

func renderCSV(f figure, series []metrics.Series) ([]byte, error) {
	var buf bytes.Buffer
	if err := experiments.WriteCSV(&buf, f.xLabel, series); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runSweepPass checks the goldens, then regenerates every figure at the paper's sample count until the time budget is
// spent (at least minSweeps times). Every repetition must render
// byte-identical CSV, since the engine is deterministic in its seed.
func runSweepPass(sp sweepSpec, seed int64, seconds float64, tr *tracer) (*sweepPass, error) {
	p := &sweepPass{callMs: make(map[string][]float64)}

	gold := tr.start("bench.golden", 0, -1)
	gr, err := experiments.NewRunner(experiments.Config{Samples: goldenSamples, Seed: goldenSeed, Parallelism: goldenParallelism})
	if err != nil {
		return nil, err
	}
	for _, f := range figures {
		if !f.golden {
			continue
		}
		series, err := f.run(gr)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", f.name, err)
		}
		got, err := renderCSV(f, series)
		if err != nil {
			return nil, err
		}
		want, err := os.ReadFile(filepath.Join(sp.goldenDir, f.name+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", f.name, err)
		}
		p.calls++
		if !bytes.Equal(got, want) {
			p.fail("%s at %d samples differs from %s.golden", f.name, goldenSamples, f.name)
		}
	}
	gold.end()

	r, err := experiments.NewRunner(experiments.Config{Samples: sp.samples, Seed: seed, Parallelism: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}

	first := make(map[string][]byte)
	budget := time.Duration(seconds * float64(time.Second))
	begin := time.Now()
	for rep := 0; rep < sp.minSweeps || time.Since(begin) < budget; rep++ {
		root := tr.start("bench.sweep", 0, -1)
		for _, f := range figures {
			span := tr.start("experiments."+f.name, root.id, -1)
			ft := time.Now()
			series, err := f.run(r)
			d := time.Since(ft)
			span.end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f.name, err)
			}
			p.callMs[f.name] = append(p.callMs[f.name], ms(d))
			p.calls++
			got, err := renderCSV(f, series)
			if err != nil {
				return nil, err
			}
			if rep == 0 {
				first[f.name] = got
			} else if !bytes.Equal(got, first[f.name]) {
				p.fail("%s: repetition %d differs from the first", f.name, rep+1)
			}
		}
		p.sweeps++
		root.end()
	}
	return p, nil
}
