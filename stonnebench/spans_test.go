package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100] with three children: a [10,30] and b [20,50] overlap
	// (parallel work), c [90,120] runs past the root's end. a has a
	// grandchild g [12,18]. A second root [200,210] has no children.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "tail", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18},
		{ID: 6, Name: "root", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]selfStat{
		// 100 - |[10,50] ∪ [90,100]| = 100 - 50, plus the lone root's 10.
		"root":  {Count: 2, TotalUs: 110, SelfUs: 60},
		"child": {Count: 2, TotalUs: 50, SelfUs: 44}, // a loses its grandchild's 6
		"tail":  {Count: 1, TotalUs: 30, SelfUs: 30},
		"leaf":  {Count: 1, TotalUs: 6, SelfUs: 6},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || math.Abs(g.TotalUs-w.TotalUs) > 1e-9 || math.Abs(g.SelfUs-w.SelfUs) > 1e-9 {
			t.Errorf("%s: %+v, want %+v", name, g, w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.newID(); id != 0 {
		t.Errorf("nil tracer id %d", id)
	}
	tr.add(0, 1, "x", processStart, processStart)
	if s := tr.snapshot(); s != nil {
		t.Errorf("nil tracer kept %d spans", len(s))
	}
}
