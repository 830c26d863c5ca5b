package bench

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/deterministic"
	"repro/internal/gadget"
	"repro/internal/graph"
	"repro/internal/lowprob"
	"repro/internal/quantum"
	"repro/internal/sched"
)

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks sweeps for test/bench contexts; the full sweeps are
	// what EXPERIMENTS.md records.
	Quick   bool
	Seed    uint64
	Workers int
	// Parallel is the trial-level parallelism of the sweeps: how many
	// independent detection runs execute concurrently on the shared
	// scheduler (0/1 sequential, negative GOMAXPROCS). Tables are
	// deterministic for a fixed Seed regardless of Parallel.
	Parallel int
}

// rt returns the engine runtime configured by the Config.
func (cfg Config) rt() congest.Runtime { return congest.Runtime{Workers: cfg.Workers} }

// runner returns the trial scheduler configured by the Config.
func (cfg Config) runner() sched.TrialRunner {
	return sched.TrialRunner{Workers: cfg.Parallel}
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Table, error)
}

// All returns the experiment registry in ID order.
func All() []Experiment {
	return []Experiment{
		{"E1", "classical C_2k rounds vs n (Theorem 1: slope 1-1/k)", E1},
		{"E2", "this paper vs Eden et al. for k ≥ 6 (Table 1 crossover)", E2},
		{"E3", "quantum C_2k rounds vs n (Theorem 2: slope 1/2-1/2k)", E3},
		{"E4", "congestion / success-probability trade-off (Section 3.2.1)", E4},
		{"E5", "quantum odd-cycle rounds vs n (Θ̃(√n))", E5},
		{"E6", "quantum bounded-length: this paper vs van Apeldoorn–de Vos", E6},
		{"E7", "lower-bound gadget families (Section 3.3)", E7},
		{"E8", "Monte-Carlo amplification: quantum √(1/ε) vs classical 1/ε", E8},
		{"E9", "density lemma dichotomy statistics (Lemma 4 / Figure 1)", E9},
		{"E10", "error calibration: one-sidedness and detection rate", E10},
		{"D1", "deterministic broadcast CONGEST vs randomized C_2k detection", D1},
		{"S1", "detection service: saved work vs worker count × corpus mix", S1},
		{"S2", "batched miss path: fused sessions vs solo reference", S2},
		{"A1", "ablation: batch vs pipelined color-BFS scheduling", A1},
		{"A2", "ablation: global vs constant local threshold on trap instances", A2},
		{"A4", "ablation: quantum with vs without diameter reduction", A4},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// scaledP is the constant-rescaled selection probability p = c/n^{1/k}
// used by the scaling experiments (see core.Options.POverride). The
// constant c is chosen per k so that p stays below 1 across the sweep while
// the congestion signal (≈ p·deg(hub)/2k) dominates the constant per-phase
// overhead of a color-BFS.
func scaledP(n, k int) float64 {
	return math.Min(1, scaledC(k)/math.Pow(float64(n), 1/float64(k)))
}

func scaledC(k int) float64 {
	switch {
	case k <= 2:
		return 8
	case k == 3:
		return 4
	default:
		return 2
	}
}

// scaledEps is the matching base success probability 1/(3τ) with the
// rescaled τ = k·2^k·n·p (even-cycle pipeline) — exponent (1-1/k), small
// constants.
func scaledEps(k int) func(n int) (float64, error) {
	return func(n int) (float64, error) {
		tau := float64(k) * math.Pow(2, float64(k)) * float64(n) * scaledP(n, k)
		if tau < 1 {
			tau = 1
		}
		return 1 / (3 * tau), nil
	}
}

// normalizedQuantumRounds divides the charged rounds by the polylog
// factors the Õ(·) notation hides — the γ decomposition colors and the
// log(1/δ) boosting repetitions — leaving the n^{1/2-1/2k}·(D+T) core.
func normalizedQuantumRounds(res *quantum.Result) float64 {
	reps := res.MaxLedger.Repetitions
	if reps < 1 {
		reps = 1
	}
	return (res.QuantumRounds - float64(res.DecompRounds)) / (float64(res.Colors) * reps)
}

// heavyInstance builds the standard scaling instance: a sparse background,
// a hub of degree n/2, and a planted C_L through the hub. The hub is what
// makes congestion — and therefore rounds — grow like |S| = Θ(n^{1-1/k}).
func heavyInstance(n, L int, seed uint64) (*graph.Graph, []graph.NodeID, error) {
	rng := graph.NewRand(seed)
	return graph.PlantedHeavy(n, L, n/2, 1.5, rng)
}

// --------------------------------------------------------------- E1

// E1 measures the executed rounds of Algorithm 1 across n for several k
// and fits the log–log slope against the theoretical 1-1/k.
func E1(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Algorithm 1 (classical C_2k): measured rounds vs n",
		Header: []string{"k", "n", "rounds/iter", "congestion", "|S|", "detected"},
	}
	ks := []int{2, 3}
	sizes := []int{512, 2048, 8192, 32768, 131072}
	if cfg.Quick {
		sizes = []int{256, 1024, 4096}
	}
	const iters = 8
	for _, k := range ks {
		var xs, ys, cs []float64
		for _, n := range sizes {
			g, _, err := heavyInstance(n, 2*k, cfg.Seed+uint64(n*k))
			if err != nil {
				return nil, err
			}
			// Per-coloring rounds fluctuate with the hub's random color
			// (the hub only congests when it lands on a receiving color),
			// so we take the maximum single-iteration cost over `iters`
			// independent colorings — the quantity the worst-case bound
			// k·τ describes. The colorings are independent trials on the
			// shared scheduler.
			maxRounds, maxCong, sizeS := 0, 0, 0
			detected := false
			_, err = sched.Run(cfg.runner(), iters,
				func(it int) (*core.Result, error) {
					return core.DetectEvenCycle(g, k, core.Options{
						Seed:          cfg.Seed + uint64(n)*31 + uint64(it),
						POverride:     scaledP(n, k),
						MaxIterations: 1,
						KeepGoing:     true,
						Runtime:       cfg.rt(),
					})
				},
				func(it int, res *core.Result) bool {
					if res.Rounds > maxRounds {
						maxRounds = res.Rounds
					}
					if res.MaxCongestion > maxCong {
						maxCong = res.MaxCongestion
					}
					sizeS = res.SizeS
					detected = detected || res.Found
					return false
				})
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(n))
			ys = append(ys, float64(maxRounds))
			cs = append(cs, float64(maxCong))
			t.AddRow(itoa(k), itoa(n), itoa(maxRounds), itoa(maxCong),
				itoa(sizeS), fmt.Sprintf("%v", detected))
		}
		slope, ok := FitSlope(xs, ys)
		cslope, cok := FitSlope(xs, cs)
		if ok && cok {
			t.AddNote("k=%d: rounds slope %.3f, congestion slope %.3f (theory 1-1/k = %.3f;"+
				" rounds carry a constant ≈3k-phase additive overhead that washes out as n grows)",
				k, slope, cslope, baseline.ThisPaperClassicalExponent(k))
		}
	}
	t.AddNote("instances: sparse host + degree-n/2 hub + planted C_2k through the hub")
	t.AddNote("constant-rescaled p = c_k/n^{1/k}; exponent is the measured quantity (docs/ARCHITECTURE.md)")
	t.AddNote("rounds = max single-coloring cost over %d colorings (worst case, as the k·τ bound)", iters)
	return t, nil
}

// --------------------------------------------------------------- E2

// E2 compares this paper's measured rounds for k ≥ 6 with the analytic
// round budget of Eden et al. [DISC'19], the previous best.
func E2(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "k = 6: this paper (measured) vs Eden et al. (budget)",
		Header: []string{"n", "ours rounds/iter", "Eden budget", "ours/Eden"},
	}
	k := 6
	sizes := []int{1024, 4096, 16384, 65536}
	if cfg.Quick {
		sizes = []int{512, 2048, 8192}
	}
	var xs, ys []float64
	for _, n := range sizes {
		g, _, err := heavyInstance(n, 2*k, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		// With L = 12 colors the hub lands on a receiving color with
		// probability 1/6 per coloring; 24 colorings make the worst-case
		// (hub-active) iteration all but certain to be observed.
		maxRounds := 0
		_, err = sched.Run(cfg.runner(), 24,
			func(it int) (*core.Result, error) {
				return core.DetectEvenCycle(g, k, core.Options{
					Seed:          cfg.Seed + uint64(it),
					POverride:     scaledP(n, k),
					MaxIterations: 1,
					KeepGoing:     true,
					Runtime:       cfg.rt(),
				})
			},
			func(it int, res *core.Result) bool {
				if res.Rounds > maxRounds {
					maxRounds = res.Rounds
				}
				return false
			})
		if err != nil {
			return nil, err
		}
		budget, err := baseline.EdenBudgetRounds(n, k)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(n))
		ys = append(ys, float64(maxRounds))
		t.AddRow(itoa(n), itoa(maxRounds), f(budget), f(float64(maxRounds)/budget))
	}
	slope, _ := FitSlope(xs, ys)
	edenExp, _ := baseline.EdenExponent(k)
	t.AddNote("ours fitted slope %.3f (theory %.3f); Eden exponent %.3f — the gap grows with n",
		slope, baseline.ThisPaperClassicalExponent(k), edenExp)
	t.AddNote("Table 1: [16] was the best known for k ≥ 6 before this paper")
	return t, nil
}

// --------------------------------------------------------------- E3

// E3 measures the quantum pipeline's charged rounds across n.
func E3(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Quantum C_2k (Lemma 13): charged rounds vs n",
		Header: []string{"k", "n", "quantum rounds", "normalized", "ε", "components", "colors"},
	}
	ks := []int{2, 3}
	sizes := []int{512, 2048, 8192, 32768}
	if cfg.Quick {
		sizes = []int{256, 1024, 4096}
	}
	for _, k := range ks {
		var xs, raw, norm []float64
		for _, n := range sizes {
			g, _, err := heavyInstance(n, 2*k, cfg.Seed+uint64(n*k))
			if err != nil {
				return nil, err
			}
			res, err := quantum.DetectEvenCycle(g, k, quantum.Options{
				Seed:              cfg.Seed,
				MaxSims:           1,
				AttemptIterations: 1,
				EpsFn:             scaledEps(k),
				Runtime:           cfg.rt(),
			})
			if err != nil {
				return nil, err
			}
			nrm := normalizedQuantumRounds(res)
			xs = append(xs, float64(n))
			raw = append(raw, res.QuantumRounds)
			norm = append(norm, nrm)
			t.AddRow(itoa(k), itoa(n), f(res.QuantumRounds), f(nrm), f(res.Eps),
				itoa(res.Components), itoa(res.Colors))
		}
		rawSlope, _ := FitSlope(xs, raw)
		normSlope, ok := FitSlope(xs, norm)
		if ok {
			t.AddNote("k=%d: raw slope %.3f, polylog-normalized slope %.3f (theory 1/2-1/2k = %.3f)",
				k, rawSlope, normSlope, baseline.ThisPaperQuantumExponent(k))
		}
	}
	t.AddNote("charged rounds = decomposition + Σ_colors max_comp log(1/δ)·⌈π/4√ε⌉·(D+T_setup);")
	t.AddNote("the Õ(·) of Theorem 2 hides γ·log(1/δ) = polylog(n) — the normalized column divides it out")
	return t, nil
}

// --------------------------------------------------------------- E4

// E4 sweeps the seed-activation probability and measures the congestion /
// success trade-off that enables the quantum speedup (Section 3.2.1).
func E4(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "Seed activation q: congestion O(q·τ) vs success probability",
		Header: []string{"q", "max congestion", "rounds/iter", "detect rate"},
	}
	n, k := 2048, 2
	trials := 8
	iters := 48
	if cfg.Quick {
		n, trials, iters = 1024, 4, 24
	}
	for _, q := range []float64{1, 0.3, 0.1, 0.03, 0.01} {
		found := 0
		maxCong := 0
		totalRounds := 0
		totalIters := 0
		_, err := sched.Run(cfg.runner(), trials,
			func(trial int) (*core.Result, error) {
				g, _, err := heavyInstance(n, 2*k, cfg.Seed+uint64(trial))
				if err != nil {
					return nil, err
				}
				return core.DetectEvenCycle(g, k, core.Options{
					Seed:          cfg.Seed + uint64(trial)*7919,
					POverride:     scaledP(n, k),
					SeedProb:      q,
					MaxIterations: iters,
					Runtime:       cfg.rt(),
				})
			},
			func(trial int, res *core.Result) bool {
				if res.Found {
					found++
				}
				if res.MaxCongestion > maxCong {
					maxCong = res.MaxCongestion
				}
				totalRounds += res.Rounds
				totalIters += res.Iterations
				return false
			})
		if err != nil {
			return nil, err
		}
		t.AddRow(f(q), itoa(maxCong), f(float64(totalRounds)/float64(totalIters)),
			fmt.Sprintf("%d/%d", found, trials))
	}
	t.AddNote("lower activation ⇒ proportionally lower congestion and per-iteration rounds,")
	t.AddNote("and proportionally lower detection rate under a fixed iteration budget —")
	t.AddNote("exactly the trade Theorem 3 then amplifies quadratically")
	return t, nil
}

// --------------------------------------------------------------- E5

// E5 measures the quantum odd-cycle pipeline (Section 3.4): Θ̃(√n).
func E5(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "Quantum C_{2k+1}: charged rounds vs n (theory slope 1/2)",
		Header: []string{"k", "n", "quantum rounds", "normalized", "ε"},
	}
	sizes := []int{512, 2048, 8192, 32768}
	if cfg.Quick {
		sizes = []int{256, 1024, 4096}
	}
	k := 2 // C_5
	var xs, raw, norm []float64
	for _, n := range sizes {
		g, _, err := heavyInstance(n, 2*k+1, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		res, err := quantum.DetectOddCycle(g, k, quantum.Options{
			Seed: cfg.Seed, MaxSims: 1, AttemptIterations: 1, Runtime: cfg.rt(),
		})
		if err != nil {
			return nil, err
		}
		nrm := normalizedQuantumRounds(res)
		xs = append(xs, float64(n))
		raw = append(raw, res.QuantumRounds)
		norm = append(norm, nrm)
		t.AddRow(itoa(k), itoa(n), f(res.QuantumRounds), f(nrm), f(res.Eps))
	}
	rawSlope, _ := FitSlope(xs, raw)
	normSlope, _ := FitSlope(xs, norm)
	t.AddNote("raw slope %.3f, polylog-normalized slope %.3f (theory 1/2; tight by Section 3.3.2)",
		rawSlope, normSlope)
	return t, nil
}

// --------------------------------------------------------------- E6

// E6 compares the quantum bounded-length detector with the analytic
// [PODC'22] curve it improves on.
func E6(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Quantum F_2k: this paper (measured) vs van Apeldoorn–de Vos (budget)",
		Header: []string{"k", "n", "ours normalized", "[33] n^exp", "ratio"},
	}
	k := 3
	sizes := []int{512, 2048, 8192, 32768}
	if cfg.Quick {
		sizes = []int{256, 1024, 4096}
	}
	boundedEps := func(n int) (float64, error) {
		tau := 2 * float64(n) * scaledP(n, k)
		if tau < 1 {
			tau = 1
		}
		return 1 / (3 * tau), nil
	}
	var xs, norm []float64
	for _, n := range sizes {
		g, _, err := heavyInstance(n, 2*k, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		res, err := quantum.DetectBoundedCycle(g, k, quantum.Options{
			Seed: cfg.Seed, MaxSims: 1, AttemptIterations: 1,
			EpsFn: boundedEps, Runtime: cfg.rt(),
		})
		if err != nil {
			return nil, err
		}
		nrm := normalizedQuantumRounds(res)
		theirs := math.Pow(float64(n), baseline.VanApeldoornDeVosExponent(k))
		xs = append(xs, float64(n))
		norm = append(norm, nrm)
		t.AddRow(itoa(k), itoa(n), f(nrm), f(theirs), f(nrm/theirs))
	}
	slope, _ := FitSlope(xs, norm)
	t.AddNote("ours normalized slope %.3f (theory %.3f) vs [33] exponent %.3f",
		slope, baseline.ThisPaperQuantumExponent(k), baseline.VanApeldoornDeVosExponent(k))
	t.AddNote("both columns drop polylog factors: ours divides by γ·log(1/δ), [33] is the bare power")
	return t, nil
}

// --------------------------------------------------------------- E7

// E7 exercises the lower-bound gadget families: detection must equal
// Disjointness intersection on every instance.
func E7(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Lower-bound gadgets: detection ⇔ set intersection",
		Header: []string{"family", "universe", "n", "intersects", "detected", "rounds"},
	}
	trials := 4
	if cfg.Quick {
		trials = 2
	}

	// Drucker et al. C₄ family.
	drucker, err := gadget.NewDruckerC4(5)
	if err != nil {
		return nil, err
	}
	for trial := 0; trial < trials; trial++ {
		intersecting := trial%2 == 0
		d := gadget.RandomDisjointness(drucker.UniverseSize(), 0.3, !intersecting, cfg.Seed+uint64(trial))
		if intersecting {
			d.X[trial], d.Y[trial] = true, true
		}
		g, err := drucker.Build(d)
		if err != nil {
			return nil, err
		}
		res, err := core.DetectEvenCycle(g, 2, core.Options{
			Seed: cfg.Seed + uint64(trial), MaxIterations: 800, Runtime: cfg.rt(),
		})
		if err != nil {
			return nil, err
		}
		if res.Found && !d.Intersects() {
			return nil, fmt.Errorf("E7: false positive on disjoint Drucker instance")
		}
		t.AddRow("Drucker-C4 (N=Θ(n^1.5))", itoa(drucker.UniverseSize()), itoa(g.NumNodes()),
			fmt.Sprintf("%v", d.Intersects()), fmt.Sprintf("%v", res.Found), itoa(res.Rounds))
	}

	// Korhonen–Rybicki C_2k family (k=2).
	kr, err := gadget.NewKRC2k(2, 200)
	if err != nil {
		return nil, err
	}
	for trial := 0; trial < trials; trial++ {
		intersecting := trial%2 == 0
		d := gadget.RandomDisjointness(kr.UniverseSize(), 0.3, !intersecting, cfg.Seed+100+uint64(trial))
		if intersecting {
			d.X[trial], d.Y[trial] = true, true
		}
		g, err := kr.Build(d)
		if err != nil {
			return nil, err
		}
		res, err := core.DetectEvenCycle(g, 2, core.Options{
			Seed: cfg.Seed + uint64(trial), MaxIterations: 800, Runtime: cfg.rt(),
		})
		if err != nil {
			return nil, err
		}
		if res.Found && !d.Intersects() {
			return nil, fmt.Errorf("E7: false positive on disjoint KR instance")
		}
		t.AddRow("KR-C4 (N=Θ(n))", itoa(kr.UniverseSize()), itoa(g.NumNodes()),
			fmt.Sprintf("%v", d.Intersects()), fmt.Sprintf("%v", res.Found), itoa(res.Rounds))
	}

	// Odd-cycle family (k=2, C₅), N = Θ(n²).
	odd, err := gadget.NewOddGadget(2, 12)
	if err != nil {
		return nil, err
	}
	for trial := 0; trial < trials; trial++ {
		intersecting := trial%2 == 0
		d := gadget.RandomDisjointness(odd.UniverseSize(), 0.05, !intersecting, cfg.Seed+200+uint64(trial))
		if intersecting {
			idx := odd.Index(trial%12, (trial+3)%12)
			d.X[idx], d.Y[idx] = true, true
		}
		g, err := odd.Build(d)
		if err != nil {
			return nil, err
		}
		res, err := lowprob.DetectOdd(g, 2, lowprob.OddOptions{
			Seed: cfg.Seed + uint64(trial), MaxIterations: 30000, SeedProb: 1, Runtime: cfg.rt(),
		})
		if err != nil {
			return nil, err
		}
		if res.Found && !d.Intersects() {
			return nil, fmt.Errorf("E7: false positive on disjoint odd instance")
		}
		t.AddRow("Odd-C5 (N=Θ(n²))", itoa(odd.UniverseSize()), itoa(g.NumNodes()),
			fmt.Sprintf("%v", d.Intersects()), fmt.Sprintf("%v", res.Found), itoa(res.Rounds))
	}
	t.AddNote("one-sidedness is enforced: detection on a disjoint instance aborts the experiment")
	t.AddNote("misses on intersecting instances are possible at the capped iteration budgets")
	return t, nil
}

// --------------------------------------------------------------- E8

// E8 tabulates the quadratic amplification separation (Theorem 3).
func E8(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Amplification to error δ=1e-4: quantum vs classical rounds",
		Header: []string{"ε", "quantum rounds", "classical rounds", "speedup"},
	}
	attempt := func(i int) (bool, []graph.NodeID, int, error) { return false, nil, 12, nil }
	for _, eps := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
		res, err := quantum.AmplifyMonteCarlo(attempt, quantum.AmplifyOptions{
			Eps: eps, Delta: 1e-4, Diameter: 8, ElectRounds: 8, CastRounds: 8, MaxSims: 2,
		})
		if err != nil {
			return nil, err
		}
		classical := quantum.ClassicalBoostRounds(eps, 1e-4, 8, res.Ledger.SetupRounds)
		t.AddRow(f(eps), f(res.Ledger.QuantumRounds), f(classical),
			f(classical/res.Ledger.QuantumRounds))
	}
	t.AddNote("T_setup fixed at 12+8+8 rounds, D=8: speedup grows like √(1/ε)")
	return t, nil
}

// --------------------------------------------------------------- E9

// E9 runs the density-lemma dichotomy over random layered instances.
func E9(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Density Lemma dichotomy over random layered instances",
		Header: []string{"k", "instances", "bound held", "violations", "cycles extracted+verified"},
	}
	trialsPer := 40
	if cfg.Quick {
		trialsPer = 15
	}
	rng := graph.NewRand(cfg.Seed ^ 0xe9)
	for _, k := range []int{2, 3, 4} {
		held, violated, extracted := 0, 0, 0
		for trial := 0; trial < trialsPer; trial++ {
			in := randomDensityInstance(k, rng)
			res, err := core.AnalyzeDensity(in)
			if err != nil {
				return nil, fmt.Errorf("E9: k=%d trial %d: %w", k, trial, err)
			}
			if res.Violation < 0 {
				held++
				continue
			}
			violated++
			if res.Witness != nil {
				if err := graph.IsSimpleCycle(in.G, res.Witness.Cycle, 2*k); err != nil {
					return nil, fmt.Errorf("E9: invalid extracted cycle: %w", err)
				}
				extracted++
			}
		}
		if violated != extracted {
			return nil, fmt.Errorf("E9: k=%d: %d violations but %d extractions", k, violated, extracted)
		}
		t.AddRow(itoa(k), itoa(trialsPer), itoa(held), itoa(violated), itoa(extracted))
	}
	t.AddNote("every density violation yielded a verified 2k-cycle through S (Lemmas 4–7)")
	return t, nil
}

// randomDensityInstance builds a random layered instance satisfying the
// k² precondition.
func randomDensityInstance(k int, rng interface {
	Int32N(int32) int32
	Float64() float64
	Perm(int) []int
}) *core.DensityInstance {
	sizeS := k*k + int(rng.Int32N(8))
	// The deepest bound is 2^{k-2}(k-1)|S|; let |W₀| range up to ~2× that
	// so both branches of the dichotomy occur at every k.
	maxW0 := int32(4 * (1 << (k - 2)) * (k - 1) * sizeS)
	sizeW0 := 1 + int(rng.Int32N(maxW0))
	b := graph.NewBuilder(0)
	var layer []int8
	add := func(l int8) graph.NodeID {
		id := graph.NodeID(len(layer))
		layer = append(layer, l)
		b.AddNodes(len(layer))
		return id
	}
	var sNodes, wNodes []graph.NodeID
	for i := 0; i < sizeS; i++ {
		sNodes = append(sNodes, add(core.LayerS))
	}
	for i := 0; i < sizeW0; i++ {
		w := add(core.LayerW0)
		wNodes = append(wNodes, w)
		perm := rng.Perm(sizeS)
		deg := k*k + int(rng.Int32N(int32(sizeS-k*k+1)))
		for _, j := range perm[:deg] {
			b.AddEdge(w, sNodes[j])
		}
	}
	prev := wNodes
	for d := 1; d <= k-1; d++ {
		cnt := 1 + int(rng.Int32N(3))
		var cur []graph.NodeID
		for c := 0; c < cnt; c++ {
			v := add(int8(d))
			cur = append(cur, v)
			for _, u := range prev {
				if rng.Float64() < 0.5 {
					b.AddEdge(v, u)
				}
			}
		}
		prev = cur
	}
	return &core.DensityInstance{G: b.Build(), K: k, Layer: layer}
}

// --------------------------------------------------------------- E10

// E10 calibrates the error guarantees of Theorem 1 at the faithful
// parameterization (k=2, where the constants are affordable).
func E10(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "Theorem 1 guarantees at faithful parameters (k=2, ε=1/3)",
		Header: []string{"instance family", "trials", "detected", "false positives"},
	}
	trials := 12
	if cfg.Quick {
		trials = 5
	}
	n := 512

	countFound := func(trial func(i int) (*core.Result, error)) (int, error) {
		found := 0
		_, err := sched.Run(cfg.runner(), trials, trial,
			func(i int, res *core.Result) bool {
				if res.Found {
					found++
				}
				return false
			})
		return found, err
	}

	// Planted (light) C_4.
	found, err := countFound(func(trial int) (*core.Result, error) {
		rng := graph.NewRand(cfg.Seed + uint64(trial))
		g, _, err := graph.PlantedLight(n, 4, 1.5, rng)
		if err != nil {
			return nil, err
		}
		return core.DetectEvenCycle(g, 2, core.Options{Seed: cfg.Seed + uint64(trial), Runtime: cfg.rt()})
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("planted light C_4", itoa(trials), itoa(found), "0 by construction")

	// Planted heavy C_4 (hub).
	foundHeavy, err := countFound(func(trial int) (*core.Result, error) {
		rng := graph.NewRand(cfg.Seed + 500 + uint64(trial))
		g, _, err := graph.PlantedHeavy(n, 4, 80, 1.2, rng)
		if err != nil {
			return nil, err
		}
		return core.DetectEvenCycle(g, 2, core.Options{Seed: cfg.Seed + uint64(trial), Runtime: cfg.rt()})
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("planted heavy C_4", itoa(trials), itoa(foundHeavy), "0 by construction")

	// C_4-free instances: girth-6 incidence graph.
	g, err := graph.ProjectivePlaneIncidence(13)
	if err != nil {
		return nil, err
	}
	falsePos, err := countFound(func(trial int) (*core.Result, error) {
		return core.DetectEvenCycle(g, 2, core.Options{
			Seed: cfg.Seed + uint64(trial), MaxIterations: 40, Runtime: cfg.rt(),
		})
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("PG(2,13) incidence (C_4-free)", itoa(trials), "-", itoa(falsePos))
	if falsePos > 0 {
		return nil, fmt.Errorf("E10: %d false positives — one-sidedness broken", falsePos)
	}
	det := float64(found+foundHeavy) / float64(2*trials)
	t.AddNote("detection rate %.2f (guarantee ≥ 1-ε = 0.67); false positives impossible by construction", det)
	return t, nil
}

// --------------------------------------------------------------- D1

// D1 compares the deterministic broadcast-CONGEST detector
// (arXiv:2412.11195, internal/deterministic) with the randomized
// Algorithm 1 on the planted C_2k sweep. The deterministic detector runs
// one seedless broadcast session and decides; the randomized column is the
// cost of a single coloring iteration of its K-iteration schedule, which
// detects only when the random coloring cooperates.
func D1(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "D1",
		Title:  "Deterministic broadcast vs randomized C_2k detection (planted sweep)",
		Header: []string{"k", "n", "det rounds", "det cong", "det found", "rand rounds/iter", "rand found", "rounds ratio"},
	}
	ks := []int{2, 3}
	sizes := []int{512, 2048, 8192, 32768}
	if cfg.Quick {
		sizes = []int{256, 1024, 4096}
	}
	for _, k := range ks {
		var xs, ys []float64
		for _, n := range sizes {
			g, _, err := graph.PlantedLight(n, 2*k, 1.5, graph.NewRand(cfg.Seed+uint64(n*k)))
			if err != nil {
				return nil, err
			}
			det, err := deterministic.Detect(g, k, deterministic.Options{Runtime: cfg.rt()})
			if err != nil {
				return nil, err
			}
			rnd, err := core.DetectEvenCycle(g, k, core.Options{
				Seed:          cfg.Seed + uint64(n)*31,
				POverride:     scaledP(n, k),
				MaxIterations: 1,
				KeepGoing:     true,
				Runtime:       cfg.rt(),
			})
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(n))
			ys = append(ys, float64(det.Rounds))
			t.AddRow(itoa(k), itoa(n), itoa(det.Rounds), itoa(det.MaxCongestion),
				fmt.Sprintf("%v", det.Found), itoa(rnd.Rounds), fmt.Sprintf("%v", rnd.Found),
				f(float64(det.Rounds)/float64(rnd.Rounds)))
		}
		if slope, ok := FitSlope(xs, ys); ok {
			t.AddNote("k=%d: deterministic rounds slope %.3f (threshold regime 1-1/k = %.3f; "+
				"sparse hosts keep the relay queues far below τ, so the measured slope tracks "+
				"the k-ball walk load, not the worst-case bound)",
				k, slope, 1-1/float64(k))
		}
	}
	t.AddNote("deterministic: one broadcast session, no repetition, no randomness; one-sided — misses need overflow or chord-polluted parent chains")
	t.AddNote("randomized: one coloring iteration at the rescaled p; its schedule needs K iterations for the 1-ε guarantee")
	t.AddNote("instances: sparse planted-light hosts; on hub-heavy instances the deterministic τ overflows (see internal/deterministic tests)")
	return t, nil
}

// --------------------------------------------------------------- A1

// A1 compares the batch (paper) and pipelined schedules.
func A1(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "color-BFS scheduling: batch (paper) vs pipelined",
		Header: []string{"n", "mode", "rounds/iter", "messages/iter", "detected"},
	}
	sizes := []int{1024, 4096}
	if cfg.Quick {
		sizes = []int{512, 2048}
	}
	const iters = 2
	for _, n := range sizes {
		g, _, err := heavyInstance(n, 4, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		for _, pipelined := range []bool{false, true} {
			mode := "batch"
			if pipelined {
				mode = "pipelined"
			}
			res, err := core.DetectEvenCycle(g, 2, core.Options{
				Seed: cfg.Seed, POverride: scaledP(n, 2), MaxIterations: iters,
				KeepGoing: true, Pipelined: pipelined, Runtime: cfg.rt(),
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(itoa(n), mode, f(float64(res.Rounds)/iters),
				f(float64(res.Messages)/iters), fmt.Sprintf("%v", res.Found))
		}
	}
	t.AddNote("pipelining removes phase barriers; both preserve one-sidedness (witnesses verified)")
	return t, nil
}

// --------------------------------------------------------------- A2

// A2 runs the trap instances where constant local thresholds lose the
// cycle while the global threshold keeps it (the [SIROCCO'23] mechanism).
func A2(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "Trap instance (C_6 + congestion trap): detection by threshold",
		Header: []string{"trap width", "τ", "detected (perfect coloring)"},
	}
	for _, width := range []int{10, 40, 160} {
		g, s, cyc := trapInstance(width)
		for _, tau := range []int{4, 16, g.NumNodes()} {
			detected, err := runTrapOnce(g, s, cyc, tau)
			if err != nil {
				return nil, err
			}
			label := itoa(tau)
			if tau == g.NumNodes() {
				label = "n (global)"
			}
			t.AddRow(itoa(width), label, fmt.Sprintf("%v", detected))
		}
	}
	t.AddNote("constant thresholds discard the flooded relay u1 once width/6 > τ;")
	t.AddNote("the global threshold τ(n) always forwards — the mechanism behind extending to k ≥ 6")
	return t, nil
}

// trapInstance builds C_6 + source + trap common neighbors of (s, u1).
func trapInstance(width int) (*graph.Graph, graph.NodeID, []graph.NodeID) {
	b := graph.NewBuilder(7 + width)
	cyc := make([]graph.NodeID, 6)
	for i := range cyc {
		cyc[i] = graph.NodeID(i)
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6))
	}
	s := graph.NodeID(6)
	b.AddEdge(s, cyc[0])
	for i := 0; i < width; i++ {
		tr := graph.NodeID(7 + i)
		b.AddEdge(s, tr)
		b.AddEdge(tr, cyc[1])
	}
	return b.Build(), s, cyc
}

func runTrapOnce(g *graph.Graph, s graph.NodeID, cyc []graph.NodeID, tau int) (bool, error) {
	n := g.NumNodes()
	colors := make([]int8, n) // traps colored 0 (adversarial)
	for i, v := range cyc {
		colors[v] = int8(i)
	}
	colors[s] = 5
	inX := make([]bool, n)
	for _, w := range g.Neighbors(s) {
		inX[w] = true
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	bfs, err := core.NewColorBFS(n, core.ColorBFSSpec{
		L: 6, Color: colors, InH: all, InX: inX, Threshold: tau, SeedProb: 1,
	})
	if err != nil {
		return false, err
	}
	eng := congest.NewEngine(congest.NewNetwork(g, 1))
	if _, err := bfs.Run(eng); err != nil {
		return false, err
	}
	return len(bfs.Detections()) > 0, nil
}

// --------------------------------------------------------------- A4

// A4 compares the quantum charge with and without diameter reduction on a
// high-diameter instance.
func A4(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "A4",
		Title:  "Quantum charge on a path-like graph: with vs without Lemma 9",
		Header: []string{"n", "mode", "quantum rounds", "D term"},
	}
	// The reduction pays off once the cluster radius Θ(k log n) is well
	// below the path diameter, so sizes start at 4000.
	sizes := []int{4000, 16000}
	if cfg.Quick {
		sizes = []int{2000, 8000}
	}
	for _, n := range sizes {
		rng := graph.NewRand(cfg.Seed + uint64(n))
		g, _, err := graph.PlantCycle(graph.Path(n), 4, rng)
		if err != nil {
			return nil, err
		}
		for _, noDecomp := range []bool{false, true} {
			mode := "reduced (Lemma 9)"
			if noDecomp {
				mode = "whole graph"
			}
			res, err := quantum.DetectEvenCycle(g, 2, quantum.Options{
				Seed: cfg.Seed, MaxSims: 1, AttemptIterations: 1,
				NoDecomposition: noDecomp, EpsFn: scaledEps(2), Runtime: cfg.rt(),
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(itoa(n), mode, f(res.QuantumRounds), itoa(res.MaxLedger.Diameter))
		}
	}
	t.AddNote("without reduction the D·√(1/ε) term dominates on high-diameter graphs (Section 3.1.2)")
	return t, nil
}
