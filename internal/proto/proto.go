package proto

import (
	"fmt"

	"repro/internal/congest"
)

// Message kinds used by this package.
const (
	kindJoin  uint8 = 1 // BFS tree: invitation carrying depth
	kindChild uint8 = 2 // BFS tree: child → parent registration
	kindUp    uint8 = 3 // convergecast: aggregated value toward the root
)

// BFSTree builds a breadth-first spanning tree rooted at Root and counts
// each node's children. After a run, Parent[u] is u's tree parent (-1 for
// the root and for unreached nodes), Depth[u] its BFS depth (-1 if
// unreached), and Children[u] the number of tree children.
type BFSTree struct {
	Root     congest.NodeID
	Parent   []congest.NodeID
	Depth    []int32
	Children []int32

	joined []bool
}

var _ congest.Handler = (*BFSTree)(nil)

// Init allocates state and wakes the root.
func (b *BFSTree) Init(rt *congest.Session) {
	n := rt.N()
	b.Parent = make([]congest.NodeID, n)
	b.Depth = make([]int32, n)
	b.Children = make([]int32, n)
	b.joined = make([]bool, n)
	for i := 0; i < n; i++ {
		b.Parent[i] = -1
		b.Depth[i] = -1
	}
	rt.WakeAt(b.Root, 0)
}

// HandleRound implements congest.Handler.
func (b *BFSTree) HandleRound(rt *congest.Session, u congest.NodeID, r int, inbox []congest.Message) {
	if u == b.Root && !b.joined[u] {
		b.joined[u] = true
		b.Depth[u] = 0
		rt.Broadcast(u, kindJoin, 0, 0)
		return
	}
	for _, m := range inbox {
		if m.Kind() == kindChild {
			b.Children[u]++
		}
	}
	if b.joined[u] {
		return
	}
	// Adopt the first (lowest-ID, since inboxes are sender-ordered) join
	// invitation.
	for _, m := range inbox {
		if m.Kind() != kindJoin {
			continue
		}
		b.joined[u] = true
		b.Parent[u] = m.From()
		b.Depth[u] = int32(m.A()) + 1
		rt.Send(u, m.From(), kindChild, 0, 0)
		for _, v := range rt.Neighbors(u) {
			if v != m.From() {
				rt.Send(u, v, kindJoin, uint64(b.Depth[u]), 0)
			}
		}
		return
	}
}

// MaxDepth returns the tree's depth (the eccentricity of the root within
// its component).
func (b *BFSTree) MaxDepth() int {
	best := int32(0)
	for _, d := range b.Depth {
		if d > best {
			best = d
		}
	}
	return int(best)
}

// ConvergecastOr aggregates the OR of per-node bits up a previously built
// BFS tree: after the run, Result holds the OR of Value over all tree
// nodes, available at the root.
type ConvergecastOr struct {
	Tree  *BFSTree
	Value []bool

	Result bool

	pendingChildren []int32
	acc             []bool
	sent            []bool
}

var _ congest.Handler = (*ConvergecastOr)(nil)

// Init wakes every leaf of the tree.
func (c *ConvergecastOr) Init(rt *congest.Session) {
	n := rt.N()
	if len(c.Value) != n {
		c.Value = make([]bool, n)
	}
	c.pendingChildren = make([]int32, n)
	c.acc = make([]bool, n)
	c.sent = make([]bool, n)
	copy(c.pendingChildren, c.Tree.Children)
	for u := 0; u < n; u++ {
		c.acc[u] = c.Value[u]
		if c.Tree.Depth[u] >= 0 && c.Tree.Children[u] == 0 {
			rt.WakeAt(congest.NodeID(u), 0)
		}
	}
}

// HandleRound implements congest.Handler.
func (c *ConvergecastOr) HandleRound(rt *congest.Session, u congest.NodeID, r int, inbox []congest.Message) {
	for _, m := range inbox {
		if m.Kind() != kindUp {
			continue
		}
		c.pendingChildren[u]--
		if m.A() != 0 {
			c.acc[u] = true
		}
	}
	if c.sent[u] || c.pendingChildren[u] > 0 {
		return
	}
	c.sent[u] = true
	if u == c.Tree.Root {
		c.Result = c.acc[u]
		return
	}
	bit := uint64(0)
	if c.acc[u] {
		bit = 1
	}
	rt.Send(u, c.Tree.Parent[u], kindUp, bit, 0)
}

// BuildTree is a convenience wrapper running BFSTree on its own session and
// returning it with the session report.
func BuildTree(e *congest.Engine, root congest.NodeID) (*BFSTree, congest.Report, error) {
	t := &BFSTree{Root: root}
	rep, err := e.Run(t)
	if err != nil {
		return nil, congest.Report{}, fmt.Errorf("proto: BFS tree: %w", err)
	}
	return t, rep, nil
}
