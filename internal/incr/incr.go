package incr

import (
	"fmt"
	"time"

	"repro/internal/congest"
	"repro/internal/deterministic"
	"repro/internal/graph"
)

// Options tunes a warm-start recheck. The zero value uses the child
// graph's default threshold and a serial engine, exactly like
// deterministic.Options.
type Options struct {
	// Threshold overrides τ for the localized run (0 = the FULL child
	// graph's DefaultThreshold, NOT the ball's own — the ball run must be
	// at least as permissive as the full run it stands in for).
	Threshold int
	// Runtime configures the engine exactly as in deterministic.Options.
	congest.Runtime
	// Cancel aborts the localized session at the next round boundary.
	Cancel *congest.CancelFlag
	// Observe receives each completed engine session's round count and
	// wall clock (see congest.Engine.Observe); purely passive.
	Observe func(rounds int, wall time.Duration)
}

// Result reports one warm-start recheck.
type Result struct {
	// Res is the localized detection result with Witness and Detector
	// remapped to the child graph's vertex IDs. Cost fields (Rounds,
	// Messages, Bits, …) describe the localized session, not a full run.
	// Nil when Fallback is true.
	Res *deterministic.Result
	// BallNodes is the size of the radius-2k ball the recheck ran on.
	BallNodes int
	// Fallback reports that the localization precondition failed and the
	// caller must run full-graph detection instead; Reason says why.
	Fallback bool
	Reason   string
}

// Radius is the localization radius for half-length k: every vertex of a
// 2k-cycle through an added edge {u,v} is within distance k of u or v
// along the cycle itself, so radius 2k around the endpoints covers any
// such cycle with slack for the detector's walk tables.
func Radius(k int) int { return 2 * k }

// ball marks every vertex within the given radius of any seed and
// returns the mark array plus the count of marked vertices.
func ball(g *graph.Graph, seeds []graph.NodeID, radius int) ([]bool, int) {
	n := g.NumNodes()
	keep := make([]bool, n)
	depth := make([]int32, n)
	queue := make([]graph.NodeID, 0, len(seeds))
	count := 0
	for _, s := range seeds {
		if !keep[s] {
			keep[s] = true
			count++
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if int(depth[u]) >= radius {
			continue
		}
		for _, w := range g.Neighbors(u) {
			if !keep[w] {
				keep[w] = true
				count++
				depth[w] = depth[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return keep, count
}

// Recheck runs the deterministic detector restricted to the neighborhood
// the added edges can affect. It presumes the caller holds a NotFound
// verdict for the parent graph (the child minus the added edges): under
// that premise any C_2k in the child passes through an added edge and
// therefore lies inside the radius-2k ball around the added endpoints, so
// a localized run decides the child. Fallback (Result.Fallback) is
// reported — never a guessed verdict — when the ball covers the whole
// graph or the localized session overflows its identifier threshold.
//
// On Found, the witness is remapped to g's vertex IDs and re-verified as
// a simple 2k-cycle in the full child graph before being returned: a
// warm-start Found is exactly as trustworthy as a cold one.
func Recheck(g *graph.Graph, added [][2]graph.NodeID, k int, opt Options) (*Result, error) {
	if k < 2 || k > deterministic.MaxK {
		return nil, fmt.Errorf("incr: k = %d out of range [2,%d]", k, deterministic.MaxK)
	}
	n := g.NumNodes()
	seeds := make([]graph.NodeID, 0, 2*len(added))
	for _, e := range added {
		for _, v := range e {
			if int(v) < 0 || int(v) >= n {
				return nil, fmt.Errorf("incr: added endpoint %d out of range [0,%d)", v, n)
			}
			seeds = append(seeds, v)
		}
	}
	if len(seeds) == 0 {
		// Nothing was added: the parent verdict IS the child verdict.
		return &Result{Res: &deterministic.Result{Threshold: tau(n, k, opt)}}, nil
	}
	keep, count := ball(g, seeds, Radius(k))
	if count >= n {
		return &Result{BallNodes: count, Fallback: true,
			Reason: fmt.Sprintf("ball covers all %d vertices", n)}, nil
	}
	sub, orig := g.InducedSubgraph(keep)
	res, err := deterministic.Detect(sub, k, deterministic.Options{
		Threshold: tau(n, k, opt),
		Runtime:   opt.Runtime,
		Cancel:    opt.Cancel,
		Observe:   opt.Observe,
	})
	if err != nil {
		return nil, fmt.Errorf("incr: localized detect: %w", err)
	}
	if res.Overflowed && !res.Found {
		return &Result{BallNodes: count, Fallback: true,
			Reason: fmt.Sprintf("localized session overflowed τ=%d", res.Threshold)}, nil
	}
	if res.Found {
		witness := make([]graph.NodeID, len(res.Witness))
		for i, v := range res.Witness {
			witness[i] = orig[v]
		}
		if err := graph.IsSimpleCycle(g, witness, 2*k); err != nil {
			// Cannot happen — induced-subgraph edges are child edges — but
			// a warm Found must never ship an unverified witness.
			return nil, fmt.Errorf("incr: remapped witness invalid: %w", err)
		}
		res.Witness = witness
		res.Detector = orig[res.Detector]
	}
	return &Result{Res: res, BallNodes: count}, nil
}

// tau is the threshold the localized run uses: the caller's override, or
// the full child graph's default — deliberately not the (smaller) ball
// default, so localization never makes the detector more conservative
// than the full run it replaces.
func tau(n, k int, opt Options) int {
	if opt.Threshold > 0 {
		return opt.Threshold
	}
	return deterministic.DefaultThreshold(n, k)
}
