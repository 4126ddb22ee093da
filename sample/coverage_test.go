package sample

import (
	"math"
	"testing"

	"forwarddecay/decay"
)

// TestAccessorsAcrossSamplers covers the small accessors.
func TestAccessorsAcrossSamplers(t *testing.T) {
	r := NewReservoir[int](3, 1)
	r.Add(1)
	if r.Len() != 1 {
		t.Error("Reservoir accessors")
	}
	ag := NewAggarwal[int](3, 1)
	ag.Add(1)
	if ag.Len() != 1 {
		t.Error("Aggarwal accessors")
	}
	p := NewPriority[int](3, 1)
	p.Add(1, 0)
	if p.Len() != 1 {
		t.Error("Priority Len")
	}
}

// TestForwardWrapperAccessorsAndMerge covers the forward-decay wrapper
// methods not exercised elsewhere.
func TestForwardWrapperAccessorsAndMerge(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.1), 0)
	wrs := NewForwardWRS[int](m, 4, 2)
	wrs2 := NewForwardWRS[int](m, 4, 3)
	wrs.Observe(1, 5)
	wrs2.Observe(2, 6)
	wrs.Merge(wrs2)
	if wrs.Model() != m || len(wrs.Sample()) != 2 {
		t.Errorf("ForwardWRS merge: %v", wrs.Sample())
	}
	pr := NewForwardPriority[int](m, 4, 4)
	pr2 := NewForwardPriority[int](m, 4, 5)
	pr.Observe(1, 5)
	pr2.Observe(2, 6)
	pr.Merge(pr2)
	if pr.Model() != m {
		t.Error("ForwardPriority Model")
	}
	s := pr.Sample(10)
	if len(s) != 2 {
		t.Errorf("ForwardPriority merged sample: %v", s)
	}
	for _, w := range s {
		if w.Weight <= 0 || math.IsInf(w.Weight, 0) {
			t.Errorf("bad weight %v", w.Weight)
		}
	}
}

// TestWRMergeEmptyBranches covers WR merge with empty sides and mismatch.
func TestWRMergeEmptyBranches(t *testing.T) {
	a := NewWR[int](3, 1)
	b := NewWR[int](3, 2)
	b.Add(7, 0)
	a.Merge(b) // empty ← nonempty: adopt
	for _, it := range a.Sample() {
		if it != 7 {
			t.Errorf("adopted sample = %v", a.Sample())
		}
	}
	c := NewWR[int](3, 3)
	a.Merge(c) // nonempty ← empty: no-op
	for _, it := range a.Sample() {
		if it != 7 {
			t.Errorf("sample after empty merge = %v", a.Sample())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size mismatch")
		}
	}()
	a.Merge(NewWR[int](2, 4))
}

// TestPriorityMergeSizeMismatchPanics completes merge error coverage.
func TestPriorityMergeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPriority[int](2, 1).Merge(NewPriority[int](3, 2))
}
