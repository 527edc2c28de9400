// Incentive training: train the MSP's PPO pricing agent under incomplete
// information (the paper's Algorithm 1) and compare the learned policy
// against the complete-information Stackelberg equilibrium and the
// greedy/random baselines — a compact version of Fig. 2 plus the baseline
// comparison of Fig. 3(a).
//
// Run with: go run ./examples/incentive_training
// (≈200 episodes; takes a few seconds)
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"vtmig"
)

func main() {
	game := vtmig.DefaultGame()

	cfg := vtmig.DefaultDRLConfig()
	cfg.Episodes = 200
	// One training stream, so the checkpoint/resume split below is
	// bit-identical to a straight run end to end (with restarts, a
	// checkpoint pins only the winning restart's stream).
	cfg.Restarts = 1
	// VTMIG_EPISODES overrides the episode budget — the smoke tests run
	// this example with a handful of episodes to keep CI fast.
	if s := os.Getenv("VTMIG_EPISODES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			log.Fatalf("invalid VTMIG_EPISODES=%q", s)
		}
		cfg.Episodes = n
	}

	// Train in two legs through a full checkpoint to demonstrate
	// bit-identical resume (determinism contract rule 6): the first leg
	// stops halfway and persists its complete training state — weights,
	// Adam moments, RNG positions, environment streams — and the second
	// leg resumes it to the full budget. The combined run is bit-for-bit
	// the run a single uninterrupted training would have produced.
	half := cfg
	half.Episodes = cfg.Episodes / 2
	if half.Episodes < 1 {
		half.Episodes = 1
	}
	fmt.Printf("Training PPO pricing agent: %d of %d episodes × %d rounds...\n",
		half.Episodes, cfg.Episodes, cfg.Rounds)
	firstLeg, err := vtmig.TrainAgent(game, half)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "vtmig-ck-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckPath := filepath.Join(dir, "ck.bin")
	if err := firstLeg.Checkpoint.WriteFile(ckPath); err != nil {
		log.Fatal(err)
	}

	in, err := os.Open(ckPath)
	if err != nil {
		log.Fatal(err)
	}
	ck, err := vtmig.LoadCheckpoint(in)
	in.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Checkpoint saved at episode %d; resuming to %d episodes...\n",
		ck.Meta.Episodes, cfg.Episodes)
	res, err := vtmig.ResumeTraining(game, cfg, ck)
	if err != nil {
		log.Fatal(err)
	}

	// Learning curve across both legs, decimated.
	curve := append(firstLeg.Episodes[:len(firstLeg.Episodes):len(firstLeg.Episodes)], res.Episodes...)
	fmt.Println("\nepisode  return (max", cfg.Rounds, "= matching the best utility every round)")
	for i := 0; i < len(curve); i += 25 {
		e := curve[i]
		fmt.Printf("%7d  %6.1f\n", e.Episode, e.Return)
	}

	eq := res.OracleOutcome
	fmt.Printf("\nLearned price:   %6.2f   (equilibrium %6.2f)\n", res.EvalPrice, eq.Price)
	fmt.Printf("Learned utility: %6.3f   (equilibrium %6.3f)\n",
		res.EvalOutcome.MSPUtility, eq.MSPUtility)

	for _, name := range []string{"greedy", "random"} {
		u, err := vtmig.RunBaseline(game, name, cfg.Rounds, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Baseline %-7s %6.3f (mean utility per round)\n", name+":", u)
	}
}
