// Command vtmig-serve runs the journaled online-pricing daemon: an HTTP
// server answering price-quote requests from the online continual-learning
// pricer, with audit-grade durability in a state directory. Every
// accepted quote is journaled before it is applied, full resume
// checkpoints rotate at optimization-phase boundaries, and restarting the
// daemon over the same directory — cleanly or after a crash — rebuilds the
// exact serving state by checkpoint restore + journal replay (same
// quotes, same learner weights, bit for bit).
//
// The learner hyper-parameters (-lr and the fixed PPO defaults) and the
// reference game are pinned into the state: restarting with different
// ones fails loudly instead of silently continuing a different learner.
//
// With -replica-of the daemon instead serves quote-only read traffic
// from another daemon's state directory: it freezes the latest published
// checkpoint, answers each quote with exactly the price the primary
// posted for its first round after that snapshot (contract rule 8), and
// re-freezes on the -refresh cadence as the primary rotates. The primary
// publishes each checkpoint one rotation after taking it, so a replica
// trails the primary's latest rotation by one. Replicas
// never write to the state directory.
//
// Usage:
//
//	vtmig-serve -dir state/ [-addr :8080] [-update-every 20]
//	            [-snapshot-every 1] [-keep 2] [-history 4] [-seed 1]
//	            [-lr 3e-4] [-warm-start-file ck.bin] [-batch-max 16]
//	vtmig-serve -replica-of state/ [-addr :8081] [-refresh 2s]
//
// API:
//
//	POST /v1/quote  {"vmus":[{"id":0,"alpha":5,"data_mb":200}],
//	                 "distance_m":500,"available_mhz":0.5}
//	GET  /v1/stats
//	GET  /healthz
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vtmig/internal/experiments"
	"vtmig/internal/rl"
	"vtmig/internal/serve"
	"vtmig/internal/stackelberg"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "vtmig-serve:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until SIGINT/SIGTERM (or stop closes),
// then shuts down gracefully: in-flight quotes finish, the journal
// closes, and the state directory is left ready for the next start. When
// ready is non-nil it receives the bound listen address once the server
// accepts connections (tests listen on :0 through it).
func run(args []string, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("vtmig-serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "HTTP listen address")
		dir       = fs.String("dir", "", "durable state directory (journal + rotated checkpoints); required unless -replica-of")
		updEvery  = fs.Int("update-every", 20, "online optimization cadence in quoted rounds")
		snapEvery = fs.Int("snapshot-every", 1, "checkpoint-rotation cadence in optimization phases")
		keep      = fs.Int("keep", 2, "published checkpoints to retain, counting the one the journal binds to")
		history   = fs.Int("history", 0, "observation history length L (0: the paper's 4, or the warm-start checkpoint's)")
		seed      = fs.Int64("seed", 1, "seed for the cold-start learner and initial history")
		lr        = fs.Float64("lr", experiments.DefaultDRLConfig().PPO.LR, "Adam learning rate (keep it identical across restarts of one state dir)")
		warmFile  = fs.String("warm-start-file", "", "warm-start a FRESH state dir from a vtmig-train checkpoint (ignored rule: resuming an existing dir must not pass this)")
		batchMax  = fs.Int("batch-max", 0, "max quotes coalesced per intake batch (0: the serving default, 1: disable batching); a pure throughput knob — any value is bit-identical")
		replicaOf = fs.String("replica-of", "", "serve quote-only reads from this primary state dir's rotated checkpoints instead of running a primary")
		refresh   = fs.Duration("refresh", 2*time.Second, "replica re-freeze cadence (0: freeze once at start, never refresh)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	game := stackelberg.DefaultGame()
	ppo := experiments.DefaultDRLConfig().PPO
	ppo.LR = *lr

	var (
		handler http.Handler
		closeFn func() error
	)
	if *replicaOf != "" {
		if *dir != "" {
			return fmt.Errorf("-dir and -replica-of are mutually exclusive: a replica never writes to the state directory")
		}
		if *warmFile != "" {
			return fmt.Errorf("-warm-start-file makes no sense for a replica: it freezes the primary's rotated checkpoints")
		}
		r, err := serve.OpenReplica(serve.ReplicaConfig{
			Dir:        *replicaOf,
			Game:       game,
			HistoryLen: *history,
			PPO:        ppo,
			Refresh:    *refresh,
		})
		if err != nil {
			return err
		}
		rst := r.Stats()
		fmt.Printf("vtmig-serve: replica of %s: frozen at snapshot %d (%d rounds, %d updates), refresh every %s\n",
			*replicaOf, rst.Snapshots, rst.Rounds, rst.Updates, *refresh)
		handler, closeFn = r.Handler(), r.Close
	} else {
		if *dir == "" {
			return fmt.Errorf("-dir is required")
		}
		cfg := serve.Config{
			Dir:             *dir,
			Game:            game,
			HistoryLen:      *history,
			UpdateEvery:     *updEvery,
			Seed:            *seed,
			PPO:             ppo,
			SnapshotEvery:   *snapEvery,
			KeepCheckpoints: *keep,
			BatchMax:        *batchMax,
		}
		if *warmFile != "" {
			agent, historyLen, err := warmStartAgent(*warmFile, game, ppo, *history, explicit["lr"], *lr)
			if err != nil {
				return err
			}
			cfg.Agent = agent
			cfg.HistoryLen = historyLen
		}
		s, err := serve.Open(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("vtmig-serve: state dir %s: %d rounds, %d updates, %d snapshots (replayed %d journaled rounds)\n",
			*dir, s.Stats().Rounds, s.Stats().Updates, s.Stats().Snapshots, s.Stats().ReplayedRounds)
		handler, closeFn = s.Handler(), s.Close
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closeFn()
		return err
	}
	srv := serve.NewHTTPServer(*addr, handler)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("vtmig-serve: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-stop:
	case err := <-serveErr:
		closeFn()
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "vtmig-serve: HTTP shutdown: %v\n", err)
	}
	if err := closeFn(); err != nil {
		return fmt.Errorf("closing server state: %w", err)
	}
	if *replicaOf != "" {
		fmt.Println("vtmig-serve: replica shut down cleanly")
	} else {
		fmt.Printf("vtmig-serve: shut down cleanly; %s resumes from checkpoint + journal\n", *dir)
	}
	return nil
}

// warmStartAgent loads a vtmig-train checkpoint for a fresh state
// directory through the shared adopt-or-match resolver (the same
// convention as vtmig-sim -warm-start-file: a full checkpoint's history
// length and learning rate are adopted, explicit conflicting flags fail).
func warmStartAgent(path string, game *stackelberg.Game, ppo rl.PPOConfig, history int, lrExplicit bool, lrFlag float64) (*rl.PPO, int, error) {
	lr := 0.0 // unset: adopt the checkpoint's (or keep ppo.LR)
	if lrExplicit {
		lr = lrFlag
	}
	res, err := experiments.ResolveWarmStart(path, game, ppo, history, lr)
	if err != nil {
		return nil, 0, err
	}
	if res.Checkpoint.Pricer != nil {
		return nil, 0, fmt.Errorf("%s is a mid-run pricer checkpoint; vtmig-serve resumes serving state from its own -dir, not from pricer checkpoints", path)
	}
	agent, err := experiments.WarmStartAgent(game, res.HistoryLen, res.PPO, res.Checkpoint)
	if err != nil {
		return nil, 0, err
	}
	return agent, res.HistoryLen, nil
}
