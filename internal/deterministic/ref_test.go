package deterministic

// A map-based reference model of the walk-relay protocol, mirroring the
// chaos-probe methodology of internal/congest's refengine_test.go one
// layer up: the same rounds, queues and threshold rules are simulated
// with plain Go maps and a hand-rolled synchronous round loop, and every
// observable of the engine-backed detector — verdict, witness, rounds,
// messages, congestion, overflow, candidate count — must match exactly.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

type refMsg struct {
	from graph.NodeID
	src  uint64
	h    uint64
}

// refDetect re-implements Detect against maps. Messages staged in round r
// are delivered at round r+1 in ascending-sender order, matching the
// engine's delivery contract.
func refDetect(g *graph.Graph, k int, tau int) (*Result, error) {
	n := g.NumNodes()
	kk := uint64(k)
	known := make([]map[uint64]graph.NodeID, n)
	for v := range known {
		known[v] = map[uint64]graph.NodeID{}
	}
	queue := make([][]uint64, n)
	qIdx := make([]int, n)
	over := make([]bool, n)
	var cands []candidate
	overflowed := false
	maxCong := 0

	inbox := make([][]refMsg, n)
	var messages int64
	rounds := 0

	woken := make([]bool, n)
	anyWoken := true // round 0: every node announces
	anyInbox := false
	for v := range woken {
		woken[v] = true
	}

	for r := 0; anyWoken || anyInbox; r++ {
		staged := make([][]refMsg, n)
		nextWoken := make([]bool, n)
		anyNextWoken := false
		anyNextInbox := false
		active := false
		broadcast := func(u graph.NodeID, src, h uint64) {
			for _, w := range g.Neighbors(u) {
				staged[w] = append(staged[w], refMsg{from: u, src: src, h: h})
				anyNextInbox = true
				messages++
			}
		}
		for u := 0; u < n; u++ {
			v := graph.NodeID(u)
			if len(inbox[u]) == 0 && !woken[u] {
				continue
			}
			active = true
			if r == 0 {
				broadcast(v, uint64(u), 0)
				continue
			}
			for _, m := range inbox[u] {
				if over[u] || graph.NodeID(m.src) == v {
					continue
				}
				h := m.h + 1
				key := walkKey(m.src, h)
				if _, dup := known[u][key]; !dup {
					if len(known[u]) >= tau {
						over[u] = true
						overflowed = true
						queue[u] = queue[u][:qIdx[u]]
						continue
					}
					known[u][key] = m.from
					if len(known[u]) > maxCong {
						maxCong = len(known[u])
					}
					if h < kk {
						queue[u] = append(queue[u], key)
					}
					continue
				}
				if h != kk || known[u][key] == m.from {
					continue
				}
				cands = append(cands, candidate{Node: v, Src: graph.NodeID(m.src), Second: m.from})
			}
			if over[u] {
				continue
			}
			if qIdx[u] < len(queue[u]) {
				key := queue[u][qIdx[u]]
				qIdx[u]++
				broadcast(v, key>>hopBits, key&hopMask)
				if qIdx[u] < len(queue[u]) {
					nextWoken[u] = true
					anyNextWoken = true
				}
			}
		}
		if active {
			rounds = r + 1
		}
		inbox, woken = staged, nextWoken
		anyInbox, anyWoken = anyNextInbox, anyNextWoken
	}

	slices.SortFunc(cands, func(a, b candidate) int {
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Second) - int(b.Second)
	})
	res := &Result{Threshold: tau}
	res.Costs = congest.Costs{
		Rounds:        rounds,
		Messages:      messages,
		Bits:          messages * congest.MessageBits(n),
		MaxCongestion: maxCong,
		Overflowed:    overflowed,
	}
	for _, c := range cands {
		res.Candidates++
		cycle, err := refWitness(known, c, k)
		if err != nil {
			return nil, err
		}
		if graph.IsSimpleCycle(g, cycle, 2*k) != nil {
			continue
		}
		res.Found, res.Witness, res.FoundLen = true, cycle, 2*k
		res.Detector = c.Node
		break
	}
	return res, nil
}

func refWitness(known []map[uint64]graph.NodeID, c candidate, k int) ([]graph.NodeID, error) {
	src := uint64(c.Src)
	chain := func(start graph.NodeID, fromLen int) ([]graph.NodeID, error) {
		out := make([]graph.NodeID, 0, fromLen)
		cur := start
		for h := fromLen; h >= 1; h-- {
			parent, ok := known[cur][walkKey(src, uint64(h))]
			if !ok {
				return nil, fmt.Errorf("ref: parent missing at %d length %d", cur, h)
			}
			cur = parent
			out = append(out, cur)
		}
		if cur != c.Src {
			return nil, fmt.Errorf("ref: walk ended at %d, want %d", cur, c.Src)
		}
		return out, nil
	}
	first, err := chain(c.Node, k)
	if err != nil {
		return nil, err
	}
	w2 := c.Second
	rest, err := chain(w2, k-1)
	if err != nil {
		return nil, err
	}
	cycle := make([]graph.NodeID, 0, 2*k)
	cycle = append(cycle, c.Src)
	for i := len(first) - 2; i >= 0; i-- {
		cycle = append(cycle, first[i])
	}
	cycle = append(cycle, c.Node, w2)
	cycle = append(cycle, rest[:len(rest)-1]...)
	return cycle, nil
}

// TestMatchesMapReference runs the engine-backed detector and the map
// reference over a spread of instances — random, planted, structured, and
// threshold-starved (overflow on every relay path) — and requires every
// Result field to match bit for bit, for both serial and forced-parallel
// engine configurations.
func TestMatchesMapReference(t *testing.T) {
	planted := func(n, L int, seed uint64) *graph.Graph {
		g, _, err := graph.PlantedLight(n, L, 2.0, graph.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
		tau  int // 0 = default
	}{
		{"gnm-sparse", graph.Gnm(80, 120, graph.NewRand(1)), 2, 0},
		{"gnm-dense", graph.Gnm(60, 400, graph.NewRand(2)), 2, 0},
		{"gnm-k3", graph.Gnm(80, 140, graph.NewRand(3)), 3, 0},
		{"planted-c4", planted(150, 4, 4), 2, 0},
		{"planted-c6", planted(150, 6, 5), 3, 0},
		{"theta", graph.Theta(4, 3), 3, 0},
		{"grid", graph.Grid(8, 8), 2, 0},
		{"starved", graph.Gnm(70, 200, graph.NewRand(6)), 2, 3},
		{"starved-k3", planted(120, 6, 7), 3, 4},
		{"hub", func() *graph.Graph {
			g, _, err := graph.PlantedHeavy(120, 4, 40, 1.5, graph.NewRand(8))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}(), 2, 0},
	}
	// The cold layout sizes a table for min(τ, length-≤2 keys): at the
	// default τ the k = 3 cases above outgrow those sizes, and a small τ
	// caps every set inside a τ-sized table.
	for _, tau := range []int{1, 4, 6} {
		cases = append(cases, struct {
			name string
			g    *graph.Graph
			k    int
			tau  int
		}{fmt.Sprintf("planted-c6-tau%d", tau), planted(150, 6, 9), 3, tau})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tau := tc.tau
			if tau == 0 {
				tau = DefaultThreshold(tc.g.NumNodes(), tc.k)
			}
			want, err := refDetect(tc.g, tc.k, tau)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range []Options{
				{Threshold: tc.tau, Runtime: congest.Runtime{Workers: 1}},
				{Threshold: tc.tau, Runtime: congest.Runtime{Workers: 4, ParallelThreshold: 1}},
			} {
				got, err := Detect(tc.g, tc.k, opt)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Fatalf("engine run (workers=%d) diverges from reference:\nref: %+v\neng: %+v",
						opt.Workers, want, got)
				}
			}
		})
	}
	// A fused batch whose graphs differ in n runs every component under
	// its own default τ through the per-node table; each component's
	// Result must match the reference of its graph alone.
	t.Run("fused-nonuniform-tau", func(t *testing.T) {
		gs := []*graph.Graph{
			graph.Gnm(60, 400, graph.NewRand(21)),
			graph.Gnm(200, 320, graph.NewRand(22)),
			graph.Grid(9, 9),
		}
		for _, k := range []int{2, 3} {
			got, err := DetectMulti(gs, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range gs {
				want, err := refDetect(g, k, DefaultThreshold(g.NumNodes(), k))
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want) {
					t.Fatalf("k=%d: fused component %d diverges from reference:\nref: %+v\neng: %+v", k, i, want, got[i])
				}
			}
		}
	})
}
