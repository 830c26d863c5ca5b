package service

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/store"
)

// ErrDuplicateCorpus is returned (wrapped) by RegisterGraph and
// CreateCorpus when the name is already taken; the HTTP server maps it
// to 409 Conflict.
var ErrDuplicateCorpus = errors.New("service: corpus graph already registered")

// checkCorpusName validates a corpus name identically with and without a
// persistent store behind the service: empty and over-long names are a
// client error (→ 400) in both modes, never a store-layer internal
// failure (→ 503). The length cap is the store's on-disk record bound.
func checkCorpusName(name string) error {
	if name == "" {
		return errors.New("service: corpus name must not be empty")
	}
	if len(name) > store.MaxNameLen {
		return fmt.Errorf("service: corpus name is %d bytes (max %d)", len(name), store.MaxNameLen)
	}
	return nil
}

// RegisterGraph adds a named graph to the in-memory corpus registry
// WITHOUT persisting it — the boot-time seeding path for graphs whose
// durable source of truth lives elsewhere (generator specs, files).
// Registering an existing name fails with ErrDuplicateCorpus. Use
// CreateCorpus for mutations that must survive a crash.
func (s *Service) RegisterGraph(name string, g *graph.Graph) error {
	if err := checkCorpusName(name); err != nil {
		return err
	}
	if g == nil {
		return fmt.Errorf("service: corpus entries need a graph")
	}
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	if _, dup := s.corpus[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateCorpus, name)
	}
	s.corpus[name] = g
	return nil
}

// CreateCorpus durably installs a new named graph: journaled in the
// persistent store (when Config.Persist is set) before it becomes
// visible to requests. ErrDuplicateCorpus if the name is taken.
func (s *Service) CreateCorpus(name string, g *graph.Graph) error {
	if err := checkCorpusName(name); err != nil {
		return err
	}
	if g == nil {
		return fmt.Errorf("service: corpus entries need a graph")
	}
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	if _, dup := s.corpus[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateCorpus, name)
	}
	if s.cfg.Persist != nil {
		if err := s.cfg.Persist.Create(name, g); err != nil {
			return s.storeErr("create", name, err)
		}
	}
	s.corpus[name] = g
	return nil
}

// AddCorpusEdges durably appends undirected edges to the named corpus
// graph and returns the resulting Mutation. The mutation is
// copy-on-write: the old graph object is never touched, so in-flight
// detections and cached verdicts keyed on its fingerprint stay valid —
// they describe the graph value they were computed on, which still
// exists. The new value gets a fresh fingerprint, and instead of leaving
// that fingerprint's cache row cold, the warm-start path (see warmChild)
// carries the parent's cached deterministic verdicts over before the
// call returns, recording the parent→child lineage edge in Stats.
//
// A batch whose every edge is already present is a no-op: the identical
// graph pointer is returned, nothing is journaled, and no warm work
// runs. ErrUnknownCorpus for an unknown name; a plain error for a batch
// that grows the vertex set past the inline-upload bound (checkGrowth).
func (s *Service) AddCorpusEdges(name string, edges [][2]graph.NodeID) (*Mutation, error) {
	s.corpusMu.Lock()
	g, ok := s.corpus[name]
	if !ok {
		s.corpusMu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownCorpus, name)
	}
	if err := checkGrowth(g, edges); err != nil {
		s.corpusMu.Unlock()
		return nil, err
	}
	var ng *graph.Graph
	var err error
	if s.cfg.Persist != nil {
		if ng, err = s.cfg.Persist.AddEdges(name, edges); err != nil {
			s.corpusMu.Unlock()
			return nil, s.storeErr("add-edges", name, err)
		}
	} else if ng, err = g.WithEdges(edges); err != nil {
		s.corpusMu.Unlock()
		return nil, err
	}
	if ng == g {
		s.corpusMu.Unlock()
		atomic.AddInt64(&s.live.NoopMutations, 1)
		fp := g.Fingerprint()
		return &Mutation{Graph: g, Parent: fp, Child: fp, Noop: true}, nil
	}
	s.corpus[name] = ng
	s.corpusMu.Unlock()
	// Warm outside corpusMu: re-detection can take detector time, and the
	// entries it seeds are keyed by fingerprint, so they stay correct even
	// if another mutation has already moved the name past ng.
	atomic.AddInt64(&s.live.Mutations, 1)
	mut := &Mutation{Graph: ng, Parent: g.Fingerprint(), Child: ng.Fingerprint()}
	mut.WarmStarts, mut.Fallbacks = s.warmChild(g, ng, edges)
	atomic.AddInt64(&s.live.WarmStarts, int64(mut.WarmStarts))
	atomic.AddInt64(&s.live.Fallbacks, int64(mut.Fallbacks))
	s.noteLineage(mut.Parent, mut.Child)
	return mut, nil
}

// DeleteCorpus durably removes the named corpus graph. In-flight
// detections against it complete normally on the graph value they hold.
// ErrUnknownCorpus for an unknown name.
func (s *Service) DeleteCorpus(name string) error {
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	if _, ok := s.corpus[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCorpus, name)
	}
	if s.cfg.Persist != nil {
		if err := s.cfg.Persist.Delete(name); err != nil {
			return s.storeErr("delete", name, err)
		}
	}
	delete(s.corpus, name)
	return nil
}

// storeErr maps persistent-store errors into the service taxonomy:
// name-level conflicts to their corpus sentinels, size-cap rejections to
// a plain client error, everything else — I/O failures, a poisoned
// store — to ErrInternal (→ 503, retry after the operator intervenes).
func (s *Service) storeErr(op, name string, err error) error {
	switch {
	case errors.Is(err, store.ErrExists):
		return fmt.Errorf("%w: %q", ErrDuplicateCorpus, name)
	case errors.Is(err, store.ErrNotFound):
		return fmt.Errorf("%w: %q", ErrUnknownCorpus, name)
	case errors.Is(err, store.ErrTooLarge):
		// The client asked for a graph the durable format cannot hold:
		// their request to fix (400), not an internal failure (503).
		return fmt.Errorf("service: corpus %s %q: %v", op, name, err)
	default:
		return fmt.Errorf("%w: corpus %s %q: %v", ErrInternal, op, name, err)
	}
}

// NamedGraph resolves a corpus name to its CURRENT graph value. The
// returned *graph.Graph is an immutable snapshot: no mutation ever
// modifies a Graph in place (corpus mutation installs a NEW value under
// the name), so the caller may read it, hash it and run detections on
// it indefinitely without synchronization — it simply may no longer be
// what the name resolves to. corpus_race_test.go holds this contract
// under the race detector.
func (s *Service) NamedGraph(name string) (*graph.Graph, bool) {
	s.corpusMu.RLock()
	defer s.corpusMu.RUnlock()
	g, ok := s.corpus[name]
	return g, ok
}

// GraphNames returns the sorted corpus names.
func (s *Service) GraphNames() []string {
	s.corpusMu.RLock()
	defer s.corpusMu.RUnlock()
	names := make([]string, 0, len(s.corpus))
	for name := range s.corpus {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
