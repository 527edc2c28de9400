// Command vtmig-experiments regenerates every figure of the paper's
// evaluation section and the reproduction's ablations.
//
// Usage:
//
//	vtmig-experiments -fig all                 # fig2a fig2b fig3a fig3b fig3c fig3d
//	vtmig-experiments -fig 3a -episodes 500    # one panel, full training
//	vtmig-experiments -ablation history        # L ∈ {1,2,4,8}
//	vtmig-experiments -ablation reward         # binary vs shaped
//	vtmig-experiments -ablation solver         # closed form vs IBR
//	vtmig-experiments -ablation multimsp       # monopoly vs competition
//	vtmig-experiments -nonstationary           # frozen vs online under workload drift
//	vtmig-experiments -nonstationary -static-scenario a.json -ns-scenario b.json
//	vtmig-experiments -fig all -csv out/       # also write CSV files
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"vtmig/internal/experiments"
	"vtmig/internal/scenario"
	"vtmig/internal/stackelberg"
)

func main() {
	// The first interrupt cancels the experiment context — trainings stop
	// at the next episode boundary instead of being killed mid-figure —
	// and stop() restores default handling so a second interrupt kills
	// the process outright. The solver and multi-MSP ablations are
	// training-free and fast enough not to need cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vtmig-experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("vtmig-experiments", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "", "figure to regenerate: 2a, 2b, 3a, 3b, 3c, 3d, or all")
		ablation = fs.String("ablation", "", "ablation to run: history, reward, solver, multimsp, baselines, or seeds")
		episodes = fs.Int("episodes", 300, "DRL training episodes per sweep point")
		seed     = fs.Int64("seed", 1, "random seed")
		csvDir   = fs.String("csv", "", "also write each table as CSV into this directory")
		nonstat  = fs.Bool("nonstationary", false, "run the frozen-vs-online study under workload drift (2×2 scenario × pricer)")
		statFile = fs.String("static-scenario", "", "stationary scenario file for -nonstationary (default: in-code static highway)")
		nsFile   = fs.String("ns-scenario", "", "drifting scenario file for -nonstationary (default: in-code grid+churn+outages+demand)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fig == "" && *ablation == "" && !*nonstat {
		return fmt.Errorf("nothing to do: pass -fig, -ablation, or -nonstationary (try -fig all)")
	}

	cfg := experiments.DefaultDRLConfig()
	cfg.Episodes = *episodes
	cfg.Seed = *seed

	var tables []*experiments.Table
	emit := func(ts ...*experiments.Table) {
		for _, t := range ts {
			fmt.Println(t.String())
			tables = append(tables, t)
		}
	}

	if *fig != "" {
		want := strings.ToLower(*fig)
		wants := func(name string) bool { return want == "all" || want == name }

		if wants("2a") || wants("2b") {
			res, err := experiments.RunFig2Ctx(ctx, stackelberg.DefaultGame(), cfg)
			if err != nil {
				return err
			}
			ts := res.Tables()
			if wants("2a") {
				emit(ts[0])
			}
			if wants("2b") {
				emit(ts[1])
			}
			fmt.Printf("fig2 summary: final return %.1f/%d, learned price %.3f (eq %.3f)\n\n",
				res.Return.Tail(10), cfg.Rounds, res.Train.EvalPrice, res.Train.OracleOutcome.Price)
		}
		if wants("3a") || wants("3b") {
			res, err := experiments.RunCostSweepCtx(ctx, []float64{5, 6, 7, 8, 9}, cfg)
			if err != nil {
				return err
			}
			if wants("3a") {
				emit(res.Fig3a)
			}
			if wants("3b") {
				emit(res.Fig3b)
			}
		}
		if wants("3c") || wants("3d") {
			res, err := experiments.RunVMUSweepCtx(ctx, []int{1, 2, 3, 4, 5, 6}, cfg)
			if err != nil {
				return err
			}
			if wants("3c") {
				emit(res.Fig3c)
			}
			if wants("3d") {
				emit(res.Fig3d)
			}
		}
		if len(tables) == 0 {
			return fmt.Errorf("unknown figure %q (want 2a, 2b, 3a, 3b, 3c, 3d, or all)", *fig)
		}
	}

	switch *ablation {
	case "":
	case "history":
		t, err := experiments.RunHistoryAblationCtx(ctx, []int{1, 2, 4, 8}, cfg)
		if err != nil {
			return err
		}
		emit(t)
	case "reward":
		t, err := experiments.RunRewardAblationCtx(ctx, cfg)
		if err != nil {
			return err
		}
		emit(t)
	case "solver":
		emit(experiments.RunSolverAblation())
	case "multimsp":
		t, err := experiments.RunMultiMSPAblation([]int{1, 2, 3})
		if err != nil {
			return err
		}
		emit(t)
	case "seeds":
		study, err := experiments.RunSeedStudyCtx(ctx, stackelberg.DefaultGame(), cfg, 8)
		if err != nil {
			return err
		}
		emit(study.Table())
		fmt.Println("metric rows: 0 = price, 1 = MSP utility, 2 = regret (%)")
	case "baselines":
		t, err := experiments.RunBaselineComparisonCtx(ctx, stackelberg.DefaultGame(), cfg, 10)
		if err != nil {
			return err
		}
		emit(t)
		fmt.Println("scheme rows (in order):", strings.Join(experiments.BaselineSchemes, ", "))
	default:
		return fmt.Errorf("unknown ablation %q (want history, reward, solver, multimsp, baselines, or seeds)", *ablation)
	}

	if *nonstat {
		scfg := experiments.NonstationaryStudyConfig{DRL: cfg}
		if *statFile != "" {
			s, err := scenario.Load(*statFile)
			if err != nil {
				return err
			}
			scfg.Static = s
		}
		if *nsFile != "" {
			s, err := scenario.Load(*nsFile)
			if err != nil {
				return err
			}
			scfg.NonStationary = s
		}
		study, err := experiments.RunNonstationaryStudyCtx(ctx, scfg)
		if err != nil {
			return err
		}
		emit(study.Table())
		fmt.Println("cell rows (in order): static/frozen-drl, static/online-warm, nonstationary/frozen-drl, nonstationary/online-warm")
		fmt.Printf("online margin: static %+.4f, nonstationary %+.4f, gain under drift %+.4f\n",
			study.StaticMargin, study.NonstationaryMargin, study.MarginGain)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("creating csv dir: %w", err)
		}
		for _, t := range tables {
			name := sanitize(t.Title) + ".csv"
			f, err := os.Create(filepath.Join(*csvDir, name))
			if err != nil {
				return fmt.Errorf("creating %s: %w", name, err)
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("closing %s: %w", name, err)
			}
			fmt.Printf("wrote %s\n", filepath.Join(*csvDir, name))
		}
	}
	return nil
}

// sanitize converts a table title into a file-name stem.
func sanitize(title string) string {
	stem := title
	if i := strings.IndexByte(stem, ':'); i >= 0 {
		stem = stem[:i]
	}
	stem = strings.TrimSpace(stem)
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, stem)
}
