package sample

import (
	"errors"
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
	if err := wrs.Merge(wrs2); err != nil {
		t.Fatal(err)
	}
	if wrs.Model() != m || len(wrs.Sample()) != 2 {
		t.Errorf("ForwardWRS merge: %v", wrs.Sample())
	}
	pr := NewForwardPriority[int](m, 4, 4)
	pr2 := NewForwardPriority[int](m, 4, 5)
	pr.Observe(1, 5)
	pr2.Observe(2, 6)
	if err := pr.Merge(pr2); err != nil {
		t.Fatal(err)
	}
	var se *SizeError
	if err := pr.Merge(NewForwardPriority[int](m, 3, 6)); !errors.As(err, &se) {
		t.Errorf("ForwardPriority size-mismatch merge: %v, want a *SizeError", err)
	}
	if err := wrs.Merge(NewForwardWRS[int](m, 3, 6)); !errors.As(err, &se) {
		t.Errorf("ForwardWRS size-mismatch merge: %v, want a *SizeError", err)
	}
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
	if err := a.Merge(b); err != nil { // empty ← nonempty: adopt
		t.Fatal(err)
	}
	for _, it := range a.Sample() {
		if it != 7 {
			t.Errorf("adopted sample = %v", a.Sample())
		}
	}
	c := NewWR[int](3, 3)
	if err := a.Merge(c); err != nil { // nonempty ← empty: no-op
		t.Fatal(err)
	}
	for _, it := range a.Sample() {
		if it != 7 {
			t.Errorf("sample after empty merge = %v", a.Sample())
		}
	}
	other := NewWR[int](2, 4)
	other.Add(8, 0)
	var se *SizeError
	if err := a.Merge(other); !errors.As(err, &se) || se.Sampler != "WR" || se.A != 3 || se.B != 2 {
		t.Errorf("WR size-mismatch merge: %v, want a *SizeError", err)
	}
	for _, it := range a.Sample() {
		if it != 7 {
			t.Errorf("refused merge changed the receiver: %v", a.Sample())
		}
	}
}

// TestPriorityMergeSizeMismatchRefused completes merge error coverage: a
// size mismatch is a typed error and leaves the receiver unchanged.
func TestPriorityMergeSizeMismatchRefused(t *testing.T) {
	a, b := NewPriority[int](2, 1), NewPriority[int](3, 2)
	a.Add(1, 0)
	b.Add(2, 0)
	var se *SizeError
	if err := a.Merge(b); !errors.As(err, &se) || se.Sampler != "Priority" || se.A != 2 || se.B != 3 {
		t.Errorf("Priority size-mismatch merge: %v, want a *SizeError", err)
	}
	if s := a.Sample(0); len(s) != 1 || s[0].Item != 1 {
		t.Errorf("refused merge changed the receiver: %v", s)
	}
}
