// Command repro regenerates every table and figure of the paper's
// evaluation section (§6) as text tables, using the synthetic dataset
// stand-ins described in DESIGN.md, plus the supplementary validations
// (Theorems 2 and 3) and ablations (circulation keying, GNRW stratum
// count, frontier sampling).
//
// Usage:
//
//	repro [-quick] [-seed N] [-csv DIR] [-workers N] [-only IDS]
//
// With -quick the bench-scale configuration is used (seconds per
// figure); the default is the full configuration recorded in
// EXPERIMENTS.md (minutes in total). With -csv every figure and table
// is additionally written as a CSV file into DIR. -workers selects the
// trial-execution engine's pool size (0 = one worker per core); for a
// fixed seed the output is bit-identical for every worker count. -only
// takes a comma-separated subset of the experiment ids that -help
// lists; an unknown id exits with status 1 before anything runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"histwalk/internal/cliutil"
	"histwalk/internal/experiment"
)

var csvDir string

// interrupted is the signal-aware run context: step uses it to tell a
// cancelled experiment from a real failure.
var interrupted context.Context

// experiments lists every experiment repro reproduces, in run order;
// -only selects among their ids.
var experiments = []struct {
	id  string
	run func(cfg experiment.PaperConfig, quick bool) error
}{
	{"table1", func(cfg experiment.PaperConfig, _ bool) error { return emitTable(experiment.Table1(cfg), nil) }},
	{"fig6", func(cfg experiment.PaperConfig, _ bool) error { return emitFig(experiment.Figure6(cfg)) }},
	{"fig7", func(cfg experiment.PaperConfig, _ bool) error { return emitDistance(experiment.Figure7(cfg)) }},
	{"fig7d", func(cfg experiment.PaperConfig, _ bool) error { return emitFig(experiment.Figure7d(cfg)) }},
	{"fig8", func(cfg experiment.PaperConfig, _ bool) error {
		for _, which := range []int{1, 2} {
			fig, err := experiment.Figure8(cfg, which)
			if err != nil {
				return err
			}
			// The per-node table is large: print the summary deviations
			// the figure is read for, CSV the full data.
			fmt.Printf("## %s — %s\n", fig.ID, fig.Title)
			for _, s := range fig.Series[1:] {
				d, err := experiment.StationaryDeviation(fig, s.Name)
				if err != nil {
					return err
				}
				fmt.Printf("l2 deviation from theoretical %-18s %.5f\n", s.Name, d)
			}
			if csvDir != "" {
				if _, err := fig.SaveCSV(csvDir); err != nil {
					return err
				}
			}
		}
		return nil
	}},
	{"fig9", func(cfg experiment.PaperConfig, _ bool) error {
		a, b, err := experiment.Figure9(cfg)
		if err != nil {
			return err
		}
		if err := emitFig(a, nil); err != nil {
			return err
		}
		return emitFig(b, nil)
	}},
	{"fig10", func(cfg experiment.PaperConfig, _ bool) error { return emitDistance(experiment.Figure10(cfg)) }},
	{"fig10u", func(cfg experiment.PaperConfig, _ bool) error { return emitDistance(experiment.Figure10Unique(cfg)) }},
	{"fig11", func(cfg experiment.PaperConfig, _ bool) error { return emitDistance(experiment.Figure11(cfg)) }},
	{"thm2", func(cfg experiment.PaperConfig, quick bool) error {
		steps := 300000
		if quick {
			steps = 120000
		}
		return emitTable(experiment.Theorem2Table(experiment.Theorem2Config{
			Steps: steps, Seed: cfg.Seed, Workers: cfg.Workers, Ctx: cfg.Ctx,
		}))
	}},
	{"thm3", func(cfg experiment.PaperConfig, _ bool) error {
		res, err := experiment.Theorem3(cfg)
		if err != nil {
			return err
		}
		return emitTable(experiment.EscapeTable(res), nil)
	}},
	{"ablations", func(cfg experiment.PaperConfig, quick bool) error {
		trials := 80
		if quick {
			trials = 30
		}
		if err := emitTable(experiment.AblationCirculationTable(experiment.AblationCirculationConfig{
			CliqueSize: 10, Trials: trials, Seed: cfg.Seed, Workers: cfg.Workers, Ctx: cfg.Ctx,
		})); err != nil {
			return err
		}
		if err := emitFig(experiment.AblationGroupCountFigure(cfg)); err != nil {
			return err
		}
		return emitFig(experiment.AblationFrontierFigure(cfg))
	}},
}

// experimentIDs returns the ids -only accepts, in run order.
func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// parseOnly parses -only's comma-separated ids into the set to run; an
// empty flag selects every experiment. An id that names no experiment
// is an error naming it and the valid ids, so a typo cannot silently
// reproduce nothing.
func parseOnly(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	ids := experimentIDs()
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment id %q in -only (valid: %s)", id, strings.Join(ids, ","))
		}
		want[id] = true
	}
	return want, nil
}

func main() {
	quick := flag.Bool("quick", false, "use the quick (bench-scale) configuration")
	seed := flag.Int64("seed", 1, "master seed for all experiments")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all): "+strings.Join(experimentIDs(), ","))
	workers := flag.Int("workers", 0, "trial-execution workers per experiment (default: one per core)")
	flag.StringVar(&csvDir, "csv", "", "also write each figure/table as CSV into this directory")
	flag.Parse()

	if cliutil.ExplicitFlag("workers") && *workers < 1 {
		fmt.Fprintf(os.Stderr, "repro: -workers must be >= 1, got %d\n", *workers)
		os.Exit(1)
	}
	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancels the run context: the trial engine stops
	// dispatching, the in-flight experiment returns the cancellation,
	// and the tables already printed stand as the partial reproduction.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	interrupted = ctx

	cfg := experiment.FullConfig()
	if *quick {
		cfg = experiment.QuickConfig()
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Ctx = ctx

	fmt.Printf("# histwalk reproduction (%s configuration, seed %d)\n\n",
		mode(*quick), cfg.Seed)
	start := time.Now()
	for _, e := range experiments {
		if (len(want) == 0 || want[e.id]) && ctx.Err() == nil {
			step(e.id, func() error { return e.run(cfg, *quick) })
		}
	}

	if ctx.Err() != nil {
		fmt.Printf("\n# interrupted by signal after %v — the experiments above are the partial reproduction; rerun with -only for the rest\n",
			time.Since(start).Round(time.Millisecond))
		return
	}
	fmt.Printf("\n# done in %v\n", time.Since(start).Round(time.Millisecond))
}

func mode(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// emitFig prints fig, and writes its CSV when -csv is set; err, from
// the figure's runner, is returned first.
func emitFig(fig *experiment.Figure, err error) error {
	if err != nil {
		return err
	}
	if err := fig.Render(os.Stdout); err != nil {
		return err
	}
	if csvDir != "" {
		if _, err := fig.SaveCSV(csvDir); err != nil {
			return err
		}
	}
	return nil
}

// emitTable is emitFig for tables.
func emitTable(t *experiment.Table, err error) error {
	if err != nil {
		return err
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if csvDir != "" {
		if _, err := t.SaveCSV(csvDir); err != nil {
			return err
		}
	}
	return nil
}

// emitDistance emits a distance result's three figures.
func emitDistance(res *experiment.DistanceResult, err error) error {
	if err != nil {
		return err
	}
	for _, fig := range []*experiment.Figure{res.KL, res.L2, res.Err} {
		if err := emitFig(fig, nil); err != nil {
			return err
		}
	}
	return nil
}

func step(id string, fn func() error) {
	t0 := time.Now()
	if err := fn(); err != nil {
		if interrupted != nil && interrupted.Err() != nil && errors.Is(err, context.Cause(interrupted)) {
			// The signal cancelled this experiment mid-flight; main
			// prints the partial-reproduction summary.
			fmt.Printf("(%s interrupted after %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
			return
		}
		fmt.Fprintf(os.Stderr, "repro: %s failed: %v\n", id, err)
		os.Exit(1)
	}
	fmt.Printf("(%s finished in %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
}
