package service

import (
	"context"

	"repro/internal/graph"
	"repro/internal/incr"
)

// Mutation reports one AddCorpusEdges call: the installed graph value and
// the parent→child fingerprint edge the mutation created in the corpus
// lineage, plus what the warm-start machinery did for it.
type Mutation struct {
	// Graph is the corpus value after the mutation (the parent graph
	// itself when Noop).
	Graph *graph.Graph
	// Parent and Child are the fingerprints before and after; equal when
	// Noop. The pair is also surfaced in Stats so operators can follow
	// the lineage without holding mutation responses.
	Parent graph.Fingerprint
	Child  graph.Fingerprint
	// Noop reports that every added edge was already present (or a
	// self-loop): nothing was journaled, cached or re-fingerprinted.
	Noop bool
	// WarmStarts is the number of cached parent verdicts carried to the
	// child fingerprint by this mutation; Fallbacks counts how many of
	// those needed a full re-detection because localization failed.
	WarmStarts int
	Fallbacks  int
}

// warmChild carries the parent graph's cached deterministic verdicts to
// the child fingerprint, so the first detection after a mutation is a
// cache hit instead of a full cold run. Three paths, in order of cost:
//
//   - a cached Found survives edge addition verbatim (adding edges never
//     destroys a cycle); the witness is re-verified against the child and
//     the entry is re-keyed,
//   - a cached NotFound triggers incr.Recheck: the detector runs only on
//     the radius-2k ball around the added endpoints,
//   - when the recheck reports Fallback, a full detection runs under a
//     normal admission slot — still at mutation time, so the verdict
//     cache is warm either way.
//
// Warm entries are marked, and hits on them surface as warm_hits. Costs
// in a warmed response describe the work that actually produced it (the
// parent session for a carried Found, the localized session for a
// recheck), mirroring how amplified entries report serve-history cost.
func (s *Service) warmChild(parent, child *graph.Graph, added [][2]graph.NodeID) (warms, fallbacks int) {
	pfp, cfp := parent.Fingerprint(), child.Fingerprint()
	type cand struct {
		key  cacheKey
		resp *Response
	}
	var cands []cand
	s.mu.Lock()
	for key, el := range s.cache.items {
		if key.algo == AlgoDet && key.fp == pfp {
			cands = append(cands, cand{key, el.Value.(*lruItem).ent.resp})
		}
	}
	s.mu.Unlock()
	for _, c := range cands {
		childKey := c.key
		childKey.fp = cfp
		s.mu.Lock()
		_, busy := s.inflight[childKey]
		exists := s.cache.peek(childKey) != nil
		s.mu.Unlock()
		if busy || exists {
			continue
		}
		var resp *Response
		if c.resp.Found {
			if graph.IsSimpleCycle(child, c.resp.Witness, len(c.resp.Witness)) != nil {
				continue // cannot happen for pure edge addition; never warm unverified
			}
			resp = rekeyResponse(c.resp, cfp)
		} else {
			rc, err := incr.Recheck(child, added, c.key.k, incr.Options{
				Threshold: c.key.threshold,
				Runtime:   s.rt,
			})
			if err != nil {
				continue
			}
			if rc.Fallback {
				fallbacks++
				if resp, err = s.warmFullRun(child, childKey); err != nil {
					continue
				}
			} else {
				resp = &Response{Algo: AlgoDet, K: c.key.k, Fingerprint: cfp.String(), Verdict: rc.Res.Verdict}
			}
		}
		warms++
		s.mu.Lock()
		if _, busy := s.inflight[childKey]; !busy && s.cache.peek(childKey) == nil {
			s.cache.put(childKey, &entry{resp: resp, warmed: true})
		}
		s.mu.Unlock()
	}
	return warms, fallbacks
}

// warmFullRun is the localization fallback: an ordinary full deterministic
// detection on the child graph, run as a batch of one — so warm work
// takes a normal admission slot and cannot oversubscribe the pool past
// Config.Slots. The item is marked warm, so the executor neither batches
// it nor installs it, leaving the install to warmChild's guarded put.
func (s *Service) warmFullRun(child *graph.Graph, key cacheKey) (*Response, error) {
	req := &Request{Graph: child, Algo: AlgoDet, K: key.k, Threshold: key.threshold}
	out, _, err := s.miss(context.Background(), &fuseItem{req: req, fp: key.fp, key: key, warm: true})
	if err != nil {
		return nil, err
	}
	return out.resp, out.err
}

// rekeyResponse clones a cached response under a new fingerprint. The
// witness is copied: parent and child entries must not share mutable
// backing storage.
func rekeyResponse(p *Response, fp graph.Fingerprint) *Response {
	resp := *p
	resp.Fingerprint = fp.String()
	if p.Witness != nil {
		resp.Witness = append([]graph.NodeID(nil), p.Witness...)
	}
	return &resp
}

// noteLineage records the most recent parent→child fingerprint edge for
// Stats.
func (s *Service) noteLineage(parent, child graph.Fingerprint) {
	s.lineageMu.Lock()
	s.lastParent, s.lastChild = parent, child
	s.lineageMu.Unlock()
}
