package main

import (
	"testing"
	"time"
)

func selfOf(t *testing.T, spans []span, name string) int64 {
	t.Helper()
	for _, r := range selfTimes(spans) {
		if r.name == name {
			return r.self
		}
	}
	t.Fatalf("no span %q", name)
	return 0
}

// TestSelfTimeOverlappingChildren: overlapping children count once, a
// child sticking out of its parent counts only inside it, and a
// grandchild is charged to its own parent only.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	for name, want := range map[string]int64{
		"parent": 100 - (50 + 10), // [10,60] and [90,100]
		"a":      30 - 5,
		"b":      30,
		"c":      30,
		"leaf":   5,
	} {
		if got := selfOf(t, spans, name); got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
}

// TestStageSpansLayOutInLifecycleOrder: the server's stages sit end to
// end inside their HTTP call, centred, so the call's self time is the
// transport the client saw beyond the server's total.
func TestStageSpansLayOutInLifecycleOrder(t *testing.T) {
	tr := &tracer{epoch: time.Unix(0, 0)}
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	tr.addOp(tracedOp{start: at(0), end: at(1100), calls: []call{{
		name: "http.request", start: at(100), end: at(1100),
		stages: map[string]int64{"engine": 300_000, "validate": 100_000},
	}}})
	var names []string
	for _, s := range tr.spans {
		names = append(names, s.Name)
	}
	want := []string{"client.op", "http.request", "service.validate", "service.engine"}
	if len(names) != len(want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("spans %v, want %v", names, want)
		}
	}
	if v, e := tr.spans[2], tr.spans[3]; v.Start != 400_000 || v.End != 500_000 || e.Start != 500_000 || e.End != 800_000 {
		t.Errorf("stages at %v and %v, want [400µs,500µs] and [500µs,800µs]", v, e)
	}
	if got := selfOf(t, tr.spans, "http.request"); got != 600_000 {
		t.Errorf("http.request self %d ns, want the 600µs transport", got)
	}
	if got := selfOf(t, tr.spans, "client.op"); got != 100_000 {
		t.Errorf("client.op self %d ns, want 100µs", got)
	}
}
