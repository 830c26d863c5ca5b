package evencycle

// Transcript-invariance pins for the sharded delivery pipeline, at the
// detector level: every detector of the repository must produce a
// bit-identical result fingerprint for every (Workers,
// ParallelThreshold) engine configuration — including thresholds of 1,
// which force the work-stealing handler pool and the sharded scatter
// onto every round. CI runs this file under -race, so the parallel
// paths are exercised with full instrumentation.

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/deterministic"
	"repro/internal/graph"
	"repro/internal/lowprob"
	"repro/internal/quantum"
)

// deliveryArena is shared by every detector and instance of this file,
// so its retained sessions and detector state are re-laid across
// networks of every size the suite runs.
var deliveryArena = congest.NewArena(2)

// engineCfgs spans serial and forced-parallel runs at 2 and 8 workers,
// each fresh or on state an arena retained from earlier runs. Delivery
// takes one shard per worker and at least 64 nodes per shard, so on the
// 600-node instances 8 workers get 8 shards and on the 400-node ones 6.
var engineCfgs = []struct {
	name string
	rt   congest.Runtime
}{
	{"serial", congest.Runtime{Workers: 1}},
	{"w2", congest.Runtime{Workers: 2, ParallelThreshold: 1}},
	{"w8", congest.Runtime{Workers: 8, ParallelThreshold: 1}},
	{"serial-arena", congest.Runtime{Workers: 1, Arena: deliveryArena}},
	{"w8-arena", congest.Runtime{Workers: 8, ParallelThreshold: 1, Arena: deliveryArena}},
}

func fingerprintInvariant(t *testing.T, run func(rt congest.Runtime) (string, error)) {
	t.Helper()
	base, err := run(engineCfgs[0].rt)
	if err != nil {
		t.Fatalf("%s: %v", engineCfgs[0].name, err)
	}
	for _, cfg := range engineCfgs[1:] {
		got, err := run(cfg.rt)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if got != base {
			t.Fatalf("transcript fingerprint diverges at %s:\nserial: %s\n%s: %s", cfg.name, base, cfg.name, got)
		}
	}
}

func plantedInstance(t *testing.T, n, L int) *graph.Graph {
	t.Helper()
	host := graph.Gnm(n, 2*n, graph.NewRand(3))
	g, _, err := graph.PlantCycle(host, L, graph.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDetectorTranscriptsInvariantAcrossDelivery(t *testing.T) {
	g := plantedInstance(t, 600, 4)
	gOdd := plantedInstance(t, 400, 5)

	t.Run("even-batch", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := core.DetectEvenCycle(g, 2, core.Options{
				Seed: 42, MaxIterations: 4, KeepGoing: true,
				Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	t.Run("even-pipelined", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := core.DetectEvenCycle(g, 2, core.Options{
				Seed: 42, MaxIterations: 4, KeepGoing: true, Pipelined: true,
				Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	// Bounded detection runs color-BFS in the merged DetectSkip mode;
	// with Pipelined it covers the DetectSkip+Pipelined combination.
	t.Run("bounded-skip-batch", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := core.DetectBoundedCycle(g, 2, core.Options{
				Seed: 7, MaxIterations: 3, KeepGoing: true,
				Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	t.Run("bounded-skip-pipelined", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := core.DetectBoundedCycle(g, 2, core.Options{
				Seed: 7, MaxIterations: 3, KeepGoing: true, Pipelined: true,
				Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	t.Run("listing", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := core.ListEvenCycles(g, 2, core.Options{
				Seed: 9, MaxIterations: 3, KeepGoing: true,
				Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	t.Run("lowprob-even", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := lowprob.Detect(g, 2, core.Options{
				Seed: 11, MaxIterations: 40, KeepGoing: true,
				Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	t.Run("lowprob-odd", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := lowprob.DetectOdd(gOdd, 2, lowprob.OddOptions{
				Seed: 13, MaxIterations: 40, KeepGoing: true,
				Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	t.Run("baseline-threshold", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := baseline.DetectLocalThreshold(g, 2, baseline.LocalThresholdOptions{
				Seed: 17, Attempts: 20, KeepGoing: true,
				Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	t.Run("baseline-kball", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := baseline.DetectKBall(g, 2, 19, rt)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	// The deterministic broadcast detector must be invariant not only
	// across the delivery configurations but across master seeds: it
	// draws no randomness, so its transcript is a pure function of the
	// graph. The seed is folded into the sweep to pin exactly that.
	t.Run("deterministic", func(t *testing.T) {
		seeds := []uint64{29, 31337}
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := deterministic.Detect(g, 2, deterministic.Options{
				Seed: seeds[rt.Workers/8], Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})

	t.Run("quantum-even", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			res, err := quantum.DetectEvenCycle(g, 2, quantum.Options{
				Seed: 23, MaxSims: 6, AttemptIterations: 2,
				Runtime: rt,
			})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", res), nil
		})
	})
}
