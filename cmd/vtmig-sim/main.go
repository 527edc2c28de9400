// Command vtmig-sim runs the end-to-end vehicular-metaverse simulation:
// vehicles on a circular highway, handover-triggered VT migrations priced
// by the Stackelberg incentive mechanism, pre-copy migration over OFDMA
// bandwidth, and AoTM accounting.
//
// Besides the analytic pricers, the MSP can deploy a DRL pricing agent:
// `-pricer drl` trains one offline on the paper's benchmark game and
// deploys it frozen; `-pricer online` keeps it learning from the live
// pricing rounds (warm-started from the same offline training, or from
// scratch with `-warm-start=false`), running a PPO optimization phase
// every `-update-every` rounds.
//
// Instead of training in-process, `-warm-start-file ck.json` warm-starts
// the online pricer from a checkpoint written by vtmig-train -checkpoint
// (JSON or the compact binary encoding — the loader auto-detects). A
// full checkpoint restores the complete learner state (optimizer moments
// and RNG stream included, so continued learning picks the training
// stream up exactly) and carries its own architecture metadata: the
// history length and learning rate are read from the checkpoint, and
// explicitly passed -history/-lr flags are only checked against it — a
// conflict fails loudly before the simulation starts. A legacy
// weights-only checkpoint has no metadata and keeps using the flags. A
// mid-run pricer checkpoint (written by -snapshot-out) additionally
// restores the belief window, best tracker, and stream counters, so the
// online run resumes exactly where it stopped.
//
// `-snapshot-every N -snapshot-out ck.bin` writes such a resume
// checkpoint after every Nth online optimization phase (binary when the
// name ends in .bin, JSON otherwise).
//
// Instead of workload flags, `-scenario city.json` runs a declarative
// scenario file (strict JSON, see internal/scenario): road world,
// fleet, churn, outages, demand cycle, and the pricer all come from the
// file, and passing a workload or pricer flag alongside -scenario is an
// explicit conflict error. Host-side flags (-verbose, -trace,
// -snapshot-every, -snapshot-out) still apply:
//
//	vtmig-sim -scenario testdata/scenarios/metro-10k.json -trace metro.jsonl
//
// Usage:
//
//	vtmig-sim [-scenario city.json]
//	          [-vehicles 6] [-rsus 8] [-duration 600]
//	          [-pricer oracle|random|fixed|drl|online] [-price 25]
//	          [-train-episodes 30] [-update-every 20] [-warm-start]
//	          [-warm-start-file ck.json] [-history 4] [-lr 3e-4]
//	          [-snapshot-every 0] [-snapshot-out ck.bin]
//	          [-failure 0] [-seed 1] [-verbose]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	// Registers the "drl" and "online" pricer builders with the sim
	// pricer registry.
	_ "vtmig/internal/experiments"
	"vtmig/internal/nn"
	"vtmig/internal/scenario"
	"vtmig/internal/sim"
)

// scenarioConflictFlags are the legacy flags a scenario file replaces:
// passing any of them explicitly alongside -scenario is an error rather
// than a silent override in either direction.
var scenarioConflictFlags = []string{
	"vehicles", "rsus", "duration", "failure", "seed",
	"pricer", "price", "train-episodes", "update-every",
	"warm-start", "warm-start-file", "history", "lr",
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vtmig-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vtmig-sim", flag.ContinueOnError)
	var (
		scenarioF   = fs.String("scenario", "", "run a declarative .json scenario file instead of the workload flags")
		vehicles    = fs.Int("vehicles", 6, "number of vehicles (VMUs)")
		rsus        = fs.Int("rsus", 8, "number of RSUs on the highway")
		duration    = fs.Float64("duration", 600, "simulated seconds")
		pricer      = fs.String("pricer", "oracle", "MSP pricing strategy: oracle, random, fixed, drl, or online")
		price       = fs.Float64("price", 25, "price for -pricer fixed")
		episodes    = fs.Int("train-episodes", 30, "offline training episodes for -pricer drl / warm-started online")
		updateEvery = fs.Int("update-every", 20, "online optimization cadence in pricing rounds (-pricer online)")
		warmStart   = fs.Bool("warm-start", true, "warm-start -pricer online from offline training (false: learn from scratch)")
		warmFile    = fs.String("warm-start-file", "", "warm-start -pricer online from this checkpoint file instead of training in-process")
		history     = fs.Int("history", 4, "observation history length L of a legacy weights-only -warm-start-file checkpoint (full checkpoints carry it themselves)")
		lr          = fs.Float64("lr", 3e-4, "Adam learning rate of a legacy weights-only -warm-start-file checkpoint's training (full checkpoints carry it themselves)")
		snapEvery   = fs.Int("snapshot-every", 0, "write a resume checkpoint after every Nth online optimization phase (-pricer online; 0 disables)")
		snapOut     = fs.String("snapshot-out", "", "file the mid-run resume checkpoints go to (binary when the name ends in .bin; required with -snapshot-every)")
		failure     = fs.Float64("failure", 0, "pricing-round failure probability in [0, 1)")
		seed        = fs.Int64("seed", 1, "random seed")
		verbose     = fs.Bool("verbose", false, "print every migration record")
		traceOut    = fs.String("trace", "", "write a JSONL event trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	opts := sim.PricerBuildOptions{
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	if *snapEvery > 0 {
		if *snapOut == "" {
			return fmt.Errorf("-snapshot-every %d needs -snapshot-out", *snapEvery)
		}
		out := *snapOut
		opts.SnapshotEvery = *snapEvery
		opts.OnSnapshot = func(ck *nn.Checkpoint) {
			if err := ck.WriteFile(out); err != nil {
				fmt.Fprintf(os.Stderr, "vtmig-sim: writing resume checkpoint: %v\n", err)
			}
		}
	}

	var cfg sim.Config
	if *scenarioF != "" {
		// Scenario mode: the file defines the workload and the pricer;
		// a zero opts.DefaultSeed makes stochastic pricers adopt the
		// scenario seed.
		for _, name := range scenarioConflictFlags {
			if explicit[name] {
				return fmt.Errorf("-%s conflicts with -scenario %s: the scenario file defines the workload and pricer", name, *scenarioF)
			}
		}
		s, err := scenario.Load(*scenarioF)
		if err != nil {
			return err
		}
		if cfg, err = s.CompileConfig(); err != nil {
			return err
		}
		p, err := s.BuildPricer(opts)
		if err != nil {
			return err
		}
		cfg.Pricer = p
	} else {
		// Legacy mode compiles the workload flags into an equivalent
		// in-memory scenario, then pins the flag values verbatim so an
		// explicitly passed zero (e.g. -vehicles 0) still fails
		// validation instead of adopting a default.
		s := &scenario.Scenario{Name: "cli"}
		var err error
		if cfg, err = s.CompileConfig(); err != nil {
			return err
		}
		cfg.Vehicles = *vehicles
		cfg.RSUCount = *rsus
		cfg.DurationS = *duration
		cfg.PricingFailureRate = *failure
		cfg.Seed = *seed

		// The flags compile into a declarative sim.PricerSpec. Only explicitly
		// passed flags enter the spec — an unset spec field means "adopt the
		// default (or the checkpoint's metadata)", while an explicitly set one
		// must match what a warm-start checkpoint was trained with. The -price
		// default applies to -pricer fixed even unflagged, as it always has.
		spec := sim.PricerSpec{Name: *pricer, WarmStartFile: *warmFile}
		if explicit["price"] || *pricer == "fixed" {
			spec.Price = *price
		}
		if explicit["train-episodes"] {
			spec.TrainEpisodes = *episodes
		}
		if explicit["update-every"] {
			spec.UpdateEvery = *updateEvery
		}
		if explicit["warm-start"] {
			spec.WarmStart = warmStart
		}
		if explicit["history"] {
			spec.HistoryLen = *history
		}
		if explicit["lr"] {
			spec.LR = *lr
		}
		opts.DefaultSeed = *seed
		p, err := sim.NewPricerFromSpec(spec, opts)
		if err != nil {
			return err
		}
		cfg.Pricer = p
	}

	// The trace goes through a buffer: a fleet-scale run emits hundreds of
	// thousands of events, one write(2) each on a bare file. The simulator
	// stops tracing at its first write error and bufio keeps that error,
	// so a sink that failed mid-run surfaces at the flush below.
	var (
		traceFile *os.File
		traceBuf  *bufio.Writer
	)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		defer f.Close() // early returns; the explicit Close below reports its error
		traceFile, traceBuf = f, bufio.NewWriter(f)
		cfg.TraceWriter = traceBuf
	}

	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	rep := s.Run()
	if traceBuf != nil {
		if err := traceBuf.Flush(); err != nil {
			return fmt.Errorf("writing trace file: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("closing trace file: %w", err)
		}
	}

	fmt.Printf("Simulated %.0f s with %d vehicles over %d RSUs (pricer: %s)\n",
		rep.SimulatedS, cfg.Vehicles, cfg.EffectiveRSUCount(), rep.PricerName)
	fmt.Printf("Handovers          %d\n", rep.Handovers)
	fmt.Printf("Pricing rounds     %d (failed: %d, deferred: %d, opted out: %d)\n",
		rep.PricingRounds, rep.FailedRounds, rep.Deferred, rep.OptedOut)
	fmt.Printf("Migrations done    %d\n", rep.Completed)
	fmt.Printf("MSP revenue        %.4f\n", rep.MSPRevenue)
	fmt.Printf("Mean / max AoTM    %.4f / %.4f s\n", rep.MeanAoTM, rep.MaxAoTM)
	fmt.Printf("Mean VMU utility   %.4f\n", rep.MeanVMUUtility)
	fmt.Printf("Mean sensing AoI   %.4f s\n", rep.MeanSensingAoI)
	if rep.PlacementFailures > 0 {
		fmt.Printf("Placement failures %d\n", rep.PlacementFailures)
	}
	if online, ok := cfg.Pricer.(*sim.OnlinePricer); ok {
		online.Flush() // learn from the trailing partial round segment too
		fmt.Printf("Online updates     %d (every %d rounds; best live utility %.4f)\n",
			online.Updates(), online.UpdateEvery(), online.BestUtility())
	}

	if *verbose {
		fmt.Println("\nstart    veh  from→to  price   bw(MHz)  AoTM(s)  data(MB)  downtime(s)")
		for _, m := range rep.Migrations {
			fmt.Printf("%7.1f  %3d  %3d→%-3d  %6.2f  %7.4f  %7.3f  %8.1f  %10.4f\n",
				m.StartS, m.VehicleID, m.FromRSU, m.ToRSU, m.Price, m.BandwidthMHz, m.AoTM, m.DataMovedMB, m.DowntimeS)
		}
	}
	return nil
}
