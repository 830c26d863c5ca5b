package evencycle

// Transcript pins at the detector level: every detector of the
// repository must produce the same result fingerprint on fresh engine
// state and on state an arena retained from earlier runs (re-laid onto
// networks of other sizes), and that fingerprint must hash to the value
// pinned below. CI runs this file under -race.

import (
	"crypto/sha256"
	"fmt"
	"strings"
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

// engineCfgs runs every detector fresh and on arena-retained state.
var engineCfgs = []struct {
	name string
	rt   congest.Runtime
}{
	{"fresh", congest.Runtime{}},
	{"arena", congest.Runtime{Arena: deliveryArena}},
}

// fingerprintPins is the SHA-256 of each subtest's result fingerprint
// (fmt's %+v of the result). A change that moves one has changed a
// transcript, a cost or a witness.
var fingerprintPins = map[string]string{
	"even-batch":             "a89b10ffac2c62406ae1046d08d735ddf73d1c713990b7d99992fe9d274e0847",
	"even-pipelined":         "0d5a4f645d0e700ba169005ec92dbcbb36bda4a5bb0bd03eef4c8541c8043d54",
	"bounded-skip-batch":     "69eb39611c77954a63265a7ae8c71416e8e6118c23e2ca5a9baf5b76aceb498f",
	"bounded-skip-pipelined": "4ea846a4238844f428532aa8a5b09b3ca14bcfd8e6522123d5dc4c9c968e2119",
	"listing":                "126a4e52bfaab2ba9122ca488a336f2840a2bd7fd6dc9247057f6038a4b0cf14",
	"lowprob-even":           "224474bdd90e0fe0369065e79b74011a58125e7f138a49e24f2489254afd8367",
	"lowprob-odd":            "962ba614b00b2b4d7260fe3d1cb6243cbf493a3955941657ca187f46e5c9c02b",
	"baseline-threshold":     "3f11998410490236034a2d8482dd0bc1087009922f861c83ef6675a321598fdf",
	"baseline-kball":         "5838498f35681ca40ab1a62427ed4a007a6ac5ebd3224aeab1afea34718df25f",
	"deterministic":          "a6a485c63937cdbf969f36ab24483a11a1a19b7570b228ed79920599a86b8ad6",
	"quantum-even":           "66bedb7ad3e2c0bd225570d0fba6ddfc62ff8ef4cab0e10d1bddf4e6b149c551",
}

func fingerprintInvariant(t *testing.T, run func(rt congest.Runtime) (string, error)) {
	t.Helper()
	base, err := run(engineCfgs[0].rt)
	if err != nil {
		t.Fatalf("%s: %v", engineCfgs[0].name, err)
	}
	want := fingerprintPins[t.Name()[strings.LastIndexByte(t.Name(), '/')+1:]]
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(base))); got != want {
		t.Fatalf("fingerprint hash %s, pinned %s:\n%s", got, want, base)
	}
	for _, cfg := range engineCfgs[1:] {
		got, err := run(cfg.rt)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if got != base {
			t.Fatalf("transcript fingerprint diverges at %s:\nfresh: %s\n%s: %s", cfg.name, base, cfg.name, got)
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
	// across the engine configurations but across master seeds: it draws
	// no randomness, so its transcript is a pure function of the graph.
	// The arena run takes another seed to pin exactly that.
	t.Run("deterministic", func(t *testing.T) {
		fingerprintInvariant(t, func(rt congest.Runtime) (string, error) {
			seed := uint64(29)
			if rt.Arena != nil {
				seed = 31337
			}
			res, err := deterministic.Detect(g, 2, deterministic.Options{
				Seed: seed, Runtime: rt,
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
