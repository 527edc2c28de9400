package experiments

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vtmig/internal/stackelberg"
)

// The golden tests pin the exact numeric output of every figure pipeline
// at a fixed seed: the determinism contract is that the same seed yields
// the same figures, bit for bit, regardless of kernel batching or worker
// parallelism. Regenerate the files after an intentional numeric change
// with
//
//	go test ./internal/experiments -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// goldenTol is the comparison tolerance. Golden values are serialized
// with full float64 round-trip precision, so this only absorbs decimal
// formatting, not real numeric drift.
const goldenTol = 1e-9

// goldenCfg is the reduced-size fixed-seed training configuration used by
// every golden test.
func goldenCfg() DRLConfig {
	cfg := DefaultDRLConfig()
	cfg.Episodes = 4
	cfg.Rounds = 30
	cfg.Seed = 123
	return cfg
}

// formatTables serializes tables with full float64 precision, one line
// per row.
func formatTables(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		fmt.Fprintf(&b, "# %s\n", t.Title)
		fmt.Fprintf(&b, "| %s\n", strings.Join(t.Columns, ","))
		for _, row := range t.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			fmt.Fprintln(&b, strings.Join(cells, ","))
		}
	}
	return b.String()
}

// checkGolden compares the serialized tables against testdata/<name>, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, tables []*Table) {
	t.Helper()
	got := formatTables(tables)
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to record): %v", path, err)
	}
	compareGolden(t, name, string(wantBytes), got)
}

// compareGolden diffs two serialized table dumps cell by cell within
// goldenTol relative tolerance.
func compareGolden(t *testing.T, name, want, got string) {
	t.Helper()
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s: %d lines, golden has %d", name, len(gotLines), len(wantLines))
	}
	for ln := range wantLines {
		w, g := wantLines[ln], gotLines[ln]
		if strings.HasPrefix(w, "#") || strings.HasPrefix(w, "|") {
			if w != g {
				t.Fatalf("%s line %d: header %q, golden %q", name, ln+1, g, w)
			}
			continue
		}
		wc, gc := strings.Split(w, ","), strings.Split(g, ",")
		if len(wc) != len(gc) {
			t.Fatalf("%s line %d: %d cells, golden has %d", name, ln+1, len(gc), len(wc))
		}
		for i := range wc {
			wv, err1 := strconv.ParseFloat(wc[i], 64)
			gv, err2 := strconv.ParseFloat(gc[i], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s line %d cell %d: parse errors %v/%v", name, ln+1, i, err1, err2)
			}
			if diff := math.Abs(wv - gv); diff > goldenTol*math.Max(1, math.Max(math.Abs(wv), math.Abs(gv))) {
				t.Errorf("%s line %d cell %d: got %v, golden %v (diff %g)", name, ln+1, i, gv, wv, diff)
			}
		}
	}
}

func TestGoldenFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	res, err := RunFig2Ctx(context.Background(), stackelberg.DefaultGame(), goldenCfg())
	if err != nil {
		t.Fatalf("RunFig2Ctx: %v", err)
	}
	checkGolden(t, "fig2_golden.txt", res.Tables())
}

func TestGoldenCostSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	res, err := RunCostSweepCtx(context.Background(), []float64{5, 9}, goldenCfg())
	if err != nil {
		t.Fatalf("RunCostSweepCtx: %v", err)
	}
	checkGolden(t, "fig3_cost_golden.txt", []*Table{res.Fig3a, res.Fig3b})
}

func TestGoldenVMUSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	res, err := RunVMUSweepCtx(context.Background(), []int{2, 3}, goldenCfg())
	if err != nil {
		t.Fatalf("RunVMUSweepCtx: %v", err)
	}
	checkGolden(t, "fig3_vmu_golden.txt", []*Table{res.Fig3c, res.Fig3d})
}

func TestGoldenSeedStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	study, err := RunSeedStudyCtx(context.Background(), stackelberg.DefaultGame(), goldenCfg(), 3)
	if err != nil {
		t.Fatalf("RunSeedStudyCtx: %v", err)
	}
	checkGolden(t, "seedstudy_golden.txt", []*Table{study.Table()})
}

// TestGoldenSolverAblation pins the closed-form vs IBR solver comparison;
// it is training-free and runs even in -short mode.
func TestGoldenSolverAblation(t *testing.T) {
	checkGolden(t, "ablation_solver_golden.txt", []*Table{RunSolverAblation()})
}

// TestGoldenHistoryAblation pins the history-length ablation output.
func TestGoldenHistoryAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tab, err := RunHistoryAblationCtx(context.Background(), []int{1, 4}, goldenCfg())
	if err != nil {
		t.Fatalf("RunHistoryAblationCtx: %v", err)
	}
	checkGolden(t, "ablation_history_golden.txt", []*Table{tab})
}
