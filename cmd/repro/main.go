// Command repro regenerates the paper's evaluation figures (Fig 10(a-f),
// 11(a-c), 12(a-d)) as text tables: one row per x value, one column per
// strategy, mean ± 95% CI over the configured number of runs.
//
// Usage:
//
//	repro [-fig 10a] [-runs 100] [-seed 20010113] [-workers 0] [-validate]
//
// Without -fig, every figure is regenerated in paper order, simulating
// each of the five section 5 sweeps (join vs N, join vs average range,
// raise factor, move vs maxdisp, move vs RoundNo) once and projecting
// its figures from it. The paper averages over 100 runs; -runs 10 gives
// the same shapes in a tenth of the time.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		figID    = flag.String("fig", "", "figure id to regenerate (e.g. 10a); empty = all")
		runs     = flag.Int("runs", 100, "simulated networks per plotted point")
		seed     = flag.Uint64("seed", 20010113, "master seed")
		workers  = flag.Int("workers", 0, "parallel runs (0 = GOMAXPROCS)")
		validate = flag.Bool("validate", false, "re-verify CA1/CA2 after every event (slow)")
		format   = flag.String("format", "table", "output format: table, csv, or gnuplot")
		outDir   = flag.String("o", "", "write one file per figure into this directory instead of stdout")
	)
	flag.Parse()

	cfg := experiments.Config{
		Runs:     *runs,
		Seed:     *seed,
		Workers:  *workers,
		Validate: *validate,
	}

	render := experiments.Render
	ext := ".txt"
	switch *format {
	case "table":
	case "csv":
		render = experiments.WriteCSV
		ext = ".csv"
	case "gnuplot":
		render = experiments.WriteGnuplot
		ext = ".gp"
	default:
		fail(fmt.Errorf("unknown format %q (want table, csv, or gnuplot)", *format))
	}

	start := time.Now()
	var figs []experiments.Figure
	var err error
	if *figID == "" {
		figs, err = experiments.All(cfg)
	} else {
		var fig experiments.Figure
		fig, err = experiments.ByID(*figID, cfg)
		figs = []experiments.Figure{fig}
	}
	if err != nil {
		fail(err)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}
	for _, fig := range figs {
		if *outDir == "" {
			if err := render(os.Stdout, fig); err != nil {
				fail(err)
			}
			if *format == "table" {
				fmt.Println()
			}
			continue
		}
		name := "fig" + fig.ID + ext
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			fail(err)
		}
		if err := render(f, fig); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("%s written\n", name)
	}
	if *outDir != "" || *format == "table" {
		fmt.Printf("elapsed: %.1fs\n", time.Since(start).Seconds())
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "repro: %v\n", err)
	os.Exit(1)
}
