// Command cycledetect runs one of the repository's cycle detectors on a
// generated or loaded graph and prints the verdict, witness, and cost.
//
// Usage:
//
//	cycledetect -gen planted:2000:4:1.5 -k 2 -mode classical
//	cycledetect -gen planted:2000:4:1.5 -k 2 -algo det -json
//	cycledetect -gen file:graph.txt -k 3 -mode quantum
//	cycledetect -gen pg:7 -k 2 -mode bounded
//	cycledetect -gen planted:8192:6:1.5 -k 3 -mode classical -trials 16 -parallel 0
//
// -algo is an alias for -mode; mode "det" runs the deterministic
// broadcast-CONGEST detector (arXiv:2412.11195), which is seedless — its
// output is a pure function of the graph.
//
// -json replaces the human-readable output with one JSON object on stdout
// (verdict, witness, rounds, bits, graph fingerprint, ...), so scripts,
// the load harness, and CI smoke jobs can parse results instead of
// scraping text. The witness_verified field reports the re-verification
// of the returned witness against the input graph.
//
// -trials runs that many independent detection runs (derived seeds) on the
// shared trial scheduler and stops at the first detection; -parallel
// controls how many trials/iterations are in flight (0 = GOMAXPROCS). The
// printed result is deterministic for a fixed -seed regardless of
// -parallel.
//
// Generators:
//
//	gnm:N:M          Erdős–Rényi G(N,M)
//	planted:N:L:AVG  sparse host (avg degree AVG) + planted C_L
//	heavy:N:L:HUB    planted C_L through a degree-HUB hub
//	highgirth:N:M:G  girth > G
//	pg:Q             PG(2,Q) point–line incidence graph (C₄-free)
//	file:PATH        edge-list file ("n m" header then "u v" lines)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/sched"

	evencycle "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cycledetect:", err)
		os.Exit(1)
	}
}

// outcome is the machine-readable result of one cycledetect invocation:
// the union of every mode's fields, rendered as text by default or as one
// JSON object with -json.
type outcome struct {
	Graph struct {
		N           int    `json:"n"`
		M           int    `json:"m"`
		MaxDeg      int    `json:"maxdeg"`
		Fingerprint string `json:"fingerprint"`
	} `json:"graph"`
	Mode string `json:"mode"`
	K    int    `json:"k"`

	Found    bool           `json:"found"`
	Witness  []graph.NodeID `json:"witness,omitempty"`
	FoundLen int            `json:"found_len,omitempty"`
	// WitnessVerified reports re-verification of the witness against the
	// input graph (present whenever a witness is).
	WitnessVerified *bool `json:"witness_verified,omitempty"`

	Rounds        int   `json:"rounds,omitempty"`
	Messages      int64 `json:"messages,omitempty"`
	Bits          int64 `json:"bits,omitempty"`
	MaxCongestion int   `json:"max_congestion,omitempty"`
	Overflowed    bool  `json:"overflowed,omitempty"`
	Iterations    int   `json:"iterations,omitempty"`

	// Trials is the requested -trials count, TrialsRun how many actually
	// folded (a miss ran them all; an early detection stops the fold),
	// and DetectedTrial the 1-based winner. Set when -trials > 1.
	Trials        int `json:"trials,omitempty"`
	TrialsRun     int `json:"trials_run,omitempty"`
	DetectedTrial int `json:"detected_trial,omitempty"`

	// Quantum-mode fields.
	QuantumRounds float64 `json:"quantum_rounds,omitempty"`
	Components    int     `json:"components,omitempty"`
	Eps           float64 `json:"eps,omitempty"`

	// Mode-specific extras.
	Rejecting    []graph.NodeID   `json:"rejecting,omitempty"`
	Cycles       [][]graph.NodeID `json:"cycles,omitempty"`
	Attempts     int              `json:"attempts,omitempty"`
	MaxBallEdges int              `json:"max_ball_edges,omitempty"`
}

// setVerdict copies a detector's verdict record into o.
func (o *outcome) setVerdict(v *evencycle.Result) {
	o.Found, o.Witness, o.FoundLen = v.Found, v.Witness, v.FoundLen
	o.Rounds, o.Messages, o.Bits = v.Rounds, v.Messages, v.Bits
	o.MaxCongestion, o.Overflowed, o.Iterations = v.MaxCongestion, v.Overflowed, v.Iterations
}

// verifyWitness fills WitnessVerified (and prints in text mode).
func (o *outcome) verifyWitness(g *evencycle.Graph, jsonMode bool) {
	if len(o.Witness) == 0 {
		return
	}
	err := evencycle.VerifyCycle(g, o.Witness)
	ok := err == nil
	o.WitnessVerified = &ok
	if jsonMode {
		return
	}
	if err != nil {
		fmt.Printf("WITNESS INVALID: %v\n", err)
	} else {
		fmt.Println("witness verified against the input graph")
	}
}

func run() error {
	gen := flag.String("gen", "gnm:1000:2000", "graph source (see doc comment)")
	k := flag.Int("k", 2, "half cycle length: detect C_2k (or C_{2k+1} in odd mode)")
	mode := flag.String("mode", "classical",
		"classical | det | quantum | odd | oddquantum | bounded | boundedquantum | list | local | localthreshold | kball")
	flag.StringVar(mode, "algo", "classical", "alias for -mode")
	seed := flag.Uint64("seed", 1, "master random seed (also seeds -gen; the det detector itself is seedless — for a fixed graph its output never depends on the seed)")
	iterations := flag.Int("iterations", 0, "override coloring repetitions (0 = faithful)")
	threshold := flag.Int("threshold", 0, "override the congestion threshold τ (0 = faithful)")
	trials := flag.Int("trials", 1,
		"independent detection runs with derived seeds; stops at the first detection (detector modes only)")
	parallel := flag.Int("parallel", 1,
		"trials/iterations in flight on the shared scheduler (0 = GOMAXPROCS, 1 = sequential); the result is deterministic either way")
	jsonMode := flag.Bool("json", false, "emit one JSON object instead of text (scripting mode)")
	flag.Parse()

	g, err := graph.FromSpec(*gen, *seed)
	if err != nil {
		return err
	}
	out := &outcome{Mode: *mode, K: *k}
	out.Graph.N = g.NumNodes()
	out.Graph.M = g.NumEdges()
	out.Graph.MaxDeg = g.MaxDegree()
	out.Graph.Fingerprint = g.Fingerprint().String()
	if !*jsonMode {
		fmt.Printf("graph: n=%d m=%d maxdeg=%d\n", out.Graph.N, out.Graph.M, out.Graph.MaxDeg)
	}

	par := *parallel
	if par == 0 {
		par = -1 // sched.TrialRunner: negative means GOMAXPROCS
	}
	baseOpts := func(trialSeed uint64) []evencycle.Option {
		opts := []evencycle.Option{evencycle.WithSeed(trialSeed), evencycle.WithParallel(par)}
		if *iterations > 0 {
			opts = append(opts, evencycle.WithIterations(*iterations))
		}
		if *threshold > 0 {
			opts = append(opts, evencycle.WithThreshold(*threshold))
		}
		return opts
	}
	opts := baseOpts(*seed)

	// runTrials executes `-trials` independent runs of one detector with
	// seeds derived from the master seed, early-stopping at the first
	// detection; the result is deterministic for every -parallel. fill
	// populates out from one run and returns whether that run detected.
	runTrials := func(fill func(out *outcome, opts ...evencycle.Option) (found bool, err error)) error {
		if *trials <= 1 {
			_, err := fill(out, opts...)
			return err
		}
		out.Trials = *trials
		winnerTrial := -1
		res, err := sched.Run(sched.TrialRunner{Workers: par}, *trials,
			func(i int) (*outcome, error) {
				// The parallelism budget is spent at the trial level here;
				// each trial runs its own iterations sequentially rather
				// than multiplying the two levels.
				trialOut := &outcome{}
				opts := append(baseOpts(sched.Tag(*seed, uint64(i))), evencycle.WithParallel(1))
				found, err := fill(trialOut, opts...)
				if err != nil {
					return nil, fmt.Errorf("trial %d: %w", i, err)
				}
				if !found {
					trialOut = nil
				}
				return trialOut, nil
			},
			func(i int, trialOut *outcome) bool {
				if trialOut != nil {
					// Graft the winning trial's detector fields onto out,
					// keeping the graph/mode/trial bookkeeping.
					saved := *out
					*out = *trialOut
					out.Graph, out.Mode, out.K, out.Trials = saved.Graph, saved.Mode, saved.K, saved.Trials
					winnerTrial = i
					return true
				}
				return false
			})
		if err != nil {
			return err
		}
		out.TrialsRun = res.Folded
		if winnerTrial < 0 {
			out.Found = false
			out.Iterations = 0
			if !*jsonMode {
				fmt.Printf("found=false after %d independent trials\n", res.Folded)
			}
			return nil
		}
		out.DetectedTrial = winnerTrial + 1
		if !*jsonMode {
			fmt.Printf("detected on trial %d of %d\n", winnerTrial+1, *trials)
		}
		return nil
	}

	fillClassical := func(detect func(g *evencycle.Graph, k int, opts ...evencycle.Option) (*evencycle.Result, error)) func(*outcome, ...evencycle.Option) (bool, error) {
		return func(o *outcome, opts ...evencycle.Option) (bool, error) {
			res, err := detect(g, *k, opts...)
			if err != nil {
				return false, err
			}
			o.setVerdict(res)
			return res.Found, nil
		}
	}
	fillQuantum := func(detect func(g *evencycle.Graph, k int, opts ...evencycle.Option) (*evencycle.QuantumResult, error)) func(*outcome, ...evencycle.Option) (bool, error) {
		return func(o *outcome, opts ...evencycle.Option) (bool, error) {
			res, err := detect(g, *k, opts...)
			if err != nil {
				return false, err
			}
			o.Found = res.Found
			o.Witness = res.Witness
			o.FoundLen = len(res.Witness)
			o.QuantumRounds, o.Components, o.Eps = res.QuantumRounds, res.Components, res.Eps
			return res.Found, nil
		}
	}

	printClassical := func() {
		fmt.Printf("found=%v rounds=%d messages=%d congestion=%d iterations=%d\n",
			out.Found, out.Rounds, out.Messages, out.MaxCongestion, out.Iterations)
		if out.Found {
			fmt.Printf("witness (C_%d): %v\n", out.FoundLen, out.Witness)
		}
	}
	printQuantum := func() {
		fmt.Printf("found=%v quantumRounds=%.0f components=%d eps=%.3g\n",
			out.Found, out.QuantumRounds, out.Components, out.Eps)
		if out.Found {
			fmt.Printf("witness: %v\n", out.Witness)
		}
	}
	// runAndRender is the shared tail of every trial-capable detector
	// mode: run the trials, print in text mode, verify the witness. A
	// multi-trial miss leaves `out`'s detector fields unset (each trial's
	// stats were trial-local), so the only honest text line is the
	// "found=false after N trials" runTrials already printed — printing
	// the stats line there would report zero costs for work that ran.
	runAndRender := func(fill func(*outcome, ...evencycle.Option) (bool, error), print func()) error {
		if err := runTrials(fill); err != nil {
			return err
		}
		if !*jsonMode && !(out.Trials > 1 && !out.Found) {
			print()
		}
		out.verifyWitness(g, *jsonMode)
		return nil
	}

	switch *mode {
	case "classical":
		if err := runAndRender(fillClassical(evencycle.Detect), printClassical); err != nil {
			return err
		}
	case "det", "deterministic":
		// The deterministic broadcast detector is seedless: one run is the
		// whole answer, so -trials/-parallel do not apply.
		res, err := evencycle.DetectDeterministic(g, *k, opts...)
		if err != nil {
			return err
		}
		out.setVerdict(res)
		if !*jsonMode {
			fmt.Printf("found=%v rounds=%d messages=%d congestion=%d overflowed=%v\n",
				out.Found, out.Rounds, out.Messages, out.MaxCongestion, out.Overflowed)
			if out.Found {
				fmt.Printf("witness (C_%d): %v\n", out.FoundLen, out.Witness)
			}
		}
		out.verifyWitness(g, *jsonMode)
	case "bounded":
		if err := runAndRender(fillClassical(evencycle.DetectBounded), printClassical); err != nil {
			return err
		}
	case "odd":
		if err := runAndRender(fillClassical(evencycle.DetectOdd), printClassical); err != nil {
			return err
		}
	case "list":
		cycles, err := evencycle.ListCycles(g, *k, opts...)
		if err != nil {
			return err
		}
		out.Cycles = cycles
		out.Found = len(cycles) > 0
		if !*jsonMode {
			fmt.Printf("distinct C_%d copies found: %d\n", 2**k, len(cycles))
			for i, c := range cycles {
				fmt.Printf("  %3d: %v\n", i+1, c)
			}
		}
	case "local":
		res, err := evencycle.DetectLocal(g, *k, opts...)
		if err != nil {
			return err
		}
		out.setVerdict(&res.Result)
		out.Rejecting = res.Rejecting
		if !*jsonMode {
			fmt.Printf("found=%v rounds=%d rejecting nodes=%v\n", out.Found, out.Rounds, out.Rejecting)
			if out.Found {
				fmt.Printf("witness: %v\n", out.Witness)
			}
		}
		out.verifyWitness(g, *jsonMode)
	case "quantum":
		if err := runAndRender(fillQuantum(evencycle.DetectQuantum), printQuantum); err != nil {
			return err
		}
	case "oddquantum":
		if err := runAndRender(fillQuantum(evencycle.DetectOddQuantum), printQuantum); err != nil {
			return err
		}
	case "boundedquantum":
		if err := runAndRender(fillQuantum(evencycle.DetectBoundedQuantum), printQuantum); err != nil {
			return err
		}
	case "localthreshold":
		res, err := baseline.DetectLocalThreshold(g, *k, baseline.LocalThresholdOptions{
			Seed: *seed, Attempts: *iterations, Parallel: par,
		})
		if err != nil {
			return err
		}
		out.setVerdict(&res.Verdict)
		out.Attempts = res.Iterations
		if !*jsonMode {
			fmt.Printf("found=%v attempts=%d rounds=%d congestion=%d\n",
				out.Found, out.Attempts, out.Rounds, out.MaxCongestion)
			if out.Found {
				fmt.Printf("witness: %v\n", out.Witness)
			}
		}
		out.verifyWitness(g, *jsonMode)
	case "kball":
		res, err := baseline.DetectKBall(g, *k, *seed, congest.Runtime{})
		if err != nil {
			return err
		}
		out.setVerdict(&res.Verdict)
		out.MaxBallEdges = res.MaxBallEdges
		if !*jsonMode {
			fmt.Printf("found=%v rounds=%d messages=%d maxBallEdges=%d\n",
				out.Found, out.Rounds, out.Messages, out.MaxBallEdges)
			if out.Found {
				fmt.Printf("witness: %v\n", out.Witness)
			}
		}
		out.verifyWitness(g, *jsonMode)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	if *jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	return nil
}
