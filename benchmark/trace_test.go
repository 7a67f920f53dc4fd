package main

import (
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	// op [0,100): a [10,40) with a1 [15,25) inside, b [50,90).
	spans := []spanRec{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "a", Start: 10, End: 40, Parent: 0, Op: 1},
		{Name: "a1", Start: 15, End: 25, Parent: 1, Op: 1},
		{Name: "b", Start: 50, End: 90, Parent: 0, Op: 1},
	}
	want := []int64{30, 20, 10, 40}
	var sum int64
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
		sum += got
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the operation's 100", sum)
	}
}

func TestTracerParentsAndOps(t *testing.T) {
	tr := newTracer()
	off := tr.root("ignored")
	off.child("ignored").end()
	off.end()
	tr.count("ignored", 1)
	if len(tr.spans) != 0 || len(tr.counts) != 0 {
		t.Fatalf("a tracer that is off recorded %d spans, %d counts", len(tr.spans), len(tr.counts))
	}

	tr.on = true
	op1 := tr.root("op")
	c := op1.child("layer.Call")
	time.Sleep(time.Millisecond)
	c.end()
	op1.end()
	op2 := tr.root("op")
	op2.end()
	tr.count("layer.items", 3)
	tr.count("layer.items", 4)

	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	child := tr.spans[1]
	if child.Parent != 0 || child.Op != tr.spans[0].Op {
		t.Errorf("child span has parent %d op %d, want parent 0 op %d", child.Parent, child.Op, tr.spans[0].Op)
	}
	if tr.spans[2].Op == tr.spans[0].Op || tr.spans[2].Parent != -1 {
		t.Errorf("second operation shares op id or has a parent: %+v", tr.spans[2])
	}
	if d := child.End - child.Start; d < int64(time.Millisecond) {
		t.Errorf("child span lasted %dns, want at least the 1ms slept", d)
	}
	if tr.counts["layer.items"] != 7 {
		t.Errorf("count = %d, want 7", tr.counts["layer.items"])
	}
}
