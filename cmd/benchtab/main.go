// Command benchtab runs the repository's experiments (the reproduction of
// the paper's Table 1 and Figure 1; see internal/bench/experiments.go for the index) and
// renders their tables.
//
// Usage:
//
//	benchtab [-quick] [-seed N] [-csv|-md] [-out FILE] [-parallel P] [E1,E3,... | all]
//	benchtab -quick -md -out EXPERIMENTS.md all
//
// -parallel sets how many independent detection trials each sweep point
// runs concurrently on the shared trial scheduler (internal/sched); it
// leaves every table byte-identical to the sequential run.
//
// -md renders GitHub-flavored markdown with a generation preamble — the
// renderer behind the committed EXPERIMENTS.md, which CI regenerates
// (tables are deterministic for a fixed -seed, so the file must
// round-trip byte-identically).
//
// Wall-clock speed is not measured here: see the README's "Measuring
// performance" for the end-to-end benchmark and the go test benchmarks.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "reduced sweep sizes (test scale)")
	seed := flag.Uint64("seed", 42, "master random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	md := flag.Bool("md", false, "emit GitHub-flavored markdown with a generation preamble (EXPERIMENTS.md mode)")
	out := flag.String("out", "", "output file (default stdout)")
	parallel := flag.Int("parallel", 1,
		"independent detection trials in flight per sweep point (0 = GOMAXPROCS, 1 = sequential); tables are identical either way")
	flag.Parse()

	ids := flag.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = nil
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	} else if len(ids) == 1 && strings.Contains(ids[0], ",") {
		ids = strings.Split(ids[0], ",")
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}

	if *csv && *md {
		return fmt.Errorf("-csv and -md are mutually exclusive")
	}
	par := *parallel
	if par == 0 {
		par = -1 // sched.TrialRunner: negative means GOMAXPROCS
	}
	cfg := bench.Config{Quick: *quick, Seed: *seed, Parallel: par}
	if *md {
		// The preamble records how to regenerate the file byte-identically;
		// tables depend only on (seed, quick), never on parallel.
		mode := "full sweeps"
		if *quick {
			mode = "quick sweeps"
		}
		if _, err := fmt.Fprintf(w, "# Experiments\n\n"+
			"Reproduced experiment tables (%s, seed %d) for the paper's Table 1 /\n"+
			"Figure 1 claims; see docs/ARCHITECTURE.md for the system the numbers\n"+
			"come from and internal/bench/experiments.go for each experiment's\n"+
			"definition. Generated by `go run ./cmd/benchtab %s-md -seed %d -out EXPERIMENTS.md all`\n"+
			"— regenerate after changing any detector; CI diffs the committed file.\n\n",
			mode, *seed, map[bool]string{true: "-quick ", false: ""}[*quick], *seed); err != nil {
			return err
		}
	}
	for _, id := range ids {
		exp, err := bench.ByID(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s: %s ...\n", exp.ID, exp.Title)
		tab, err := exp.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Fprintf(os.Stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond))
		switch {
		case *csv:
			err = tab.RenderCSV(w)
		case *md:
			err = tab.RenderMarkdown(w)
		default:
			err = tab.Render(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
