package core

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
)

const kindNotify uint8 = 13 // membership token: A = seed id, B = direction

// This file implements the *local detection* variant discussed in the
// paper's Section 1.2: local detection requires each node to output
// accept/reject according to whether it belongs to a copy of the target
// subgraph. The decision algorithm gives one rejecting node (the color-m
// detector); WitnessNotify upgrades it distributively — the detector sends
// membership tokens backward along the two parent chains of the detected
// identifier, so every vertex of the discovered cycle rejects. The
// notification takes L extra rounds and O(L) messages.

// WitnessNotify is a CONGEST protocol run after a ColorBFS detection; on
// completion, Member[v] is true exactly for the vertices of the detected
// cycle.
type WitnessNotify struct {
	BFS *ColorBFS
	Det Detection

	Member []bool
}

var _ congest.Handler = (*WitnessNotify)(nil)

// Init wakes the detector.
func (w *WitnessNotify) Init(rt *congest.Session) {
	w.Member = make([]bool, rt.N())
	rt.WakeAt(w.Det.Node, 0)
}

// HandleRound implements congest.Handler.
func (w *WitnessNotify) HandleRound(rt *congest.Session, u graph.NodeID, r int, inbox []congest.Message) {
	b := w.BFS
	id := w.Det.Seed
	if r == 0 && u == w.Det.Node {
		w.Member[u] = true
		// Ascending chain.
		if p, ok := b.asc.Get(u, id); ok {
			rt.Send(u, p, kindNotify, id, 0)
		}
		// Descending chain: for a skip detection the first hop is the
		// skip relay, which then continues through its descending map.
		if w.Det.Skip {
			if p, ok := b.skip.Get(u, id); ok {
				rt.Send(u, p, kindNotify, id, 1)
			}
		} else if p, ok := b.desc.Get(u, id); ok {
			rt.Send(u, p, kindNotify, id, 1)
		}
		return
	}
	for _, m := range inbox {
		if m.Kind() != kindNotify || m.A() != id {
			continue
		}
		w.Member[u] = true
		if uint64(u) == id {
			continue // the seed: both chains terminate here
		}
		var parent graph.NodeID
		var ok bool
		if m.B() == 0 {
			parent, ok = b.asc.Get(u, id)
		} else {
			parent, ok = b.desc.Get(u, id)
		}
		if ok {
			rt.Send(u, parent, kindNotify, id, m.B())
		}
	}
}

// LocalResult extends a detection with the local-detection output.
type LocalResult struct {
	*Result
	// Rejecting lists every node that outputs reject: the members of the
	// detected cycle (empty when nothing was found).
	Rejecting []graph.NodeID
	// NotifyRounds is the extra cost of the membership notification.
	NotifyRounds int
}

// DetectEvenCycleLocal runs Algorithm 1 and, on detection, the
// witness-notification protocol, returning the full rejecting set — the
// local-detection output of Section 1.2.
func DetectEvenCycleLocal(g *graph.Graph, k int, opt Options) (*LocalResult, error) {
	comps, eng, err := algorithm1([]FusedItem{{Graph: g, Seed: opt.Seed, Iterations: opt.MaxIterations}}, k, opt, captureDetection)
	if err != nil {
		return nil, err
	}
	res := &comps[0].res
	out := &LocalResult{Result: res}
	if !res.Found {
		return out, nil
	}
	// The driver retained the detecting ColorBFS: notification walks its
	// parent pointers on the same engine.
	notify := &WitnessNotify{BFS: comps[0].bfs, Det: comps[0].det}
	rep, err := eng.Run(notify)
	if err != nil {
		return nil, fmt.Errorf("core: witness notification: %w", err)
	}
	out.NotifyRounds = rep.Rounds
	out.Merge(rep.Costs())
	for v, member := range notify.Member {
		if member {
			out.Rejecting = append(out.Rejecting, graph.NodeID(v))
		}
	}
	// Sanity: the rejecting set must be exactly the witness vertices.
	if len(out.Rejecting) != len(res.Witness) {
		return nil, fmt.Errorf("core: notification reached %d nodes, witness has %d",
			len(out.Rejecting), len(res.Witness))
	}
	return out, nil
}
