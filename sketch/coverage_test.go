package sketch

import (
	"errors"
	"math"
	"testing"
)

// TestAccessorsAndSizes covers the small accessors and size probes across
// the summaries.
func TestAccessorsAndSizes(t *testing.T) {
	ss := NewSpaceSavingK(4)
	ss.Update(1, 2)
	if ss.K() != 4 || ss.SizeBytes() <= 0 {
		t.Error("SpaceSaving accessors")
	}
	st := NewStreamSummary(4)
	st.Update(1)
	if st.K() != 4 || st.Len() != 1 || st.SizeBytes() <= 0 {
		t.Error("StreamSummary accessors")
	}
	mg := NewMisraGries(4)
	mg.Update(1, 2)
	if mg.K() != 4 || mg.SizeBytes() <= 0 {
		t.Error("MisraGries accessors")
	}
	kmv := NewKMV(4)
	kmv.Insert(1)
	if kmv.SizeBytes() <= 0 {
		t.Error("KMV size")
	}
	q := NewQDigest(16, 0.1)
	q.Update(3, 1)
	if q.SizeBytes() <= 0 {
		t.Error("QDigest size")
	}
	d := NewDominance(4, 2, 4)
	d.Update(1, 1)
	if d.SizeBytes() <= 0 {
		t.Error("Dominance size")
	}
	eh := NewExpHistogram(0.1, 30)
	if eh.Window() != 30 || eh.SizeBytes() <= 0 {
		t.Error("ExpHistogram accessors")
	}
}

// TestSpaceSavingTopAndClone covers Top ordering and Clone independence.
func TestSpaceSavingTopAndClone(t *testing.T) {
	ss := NewSpaceSavingK(8)
	for i := uint64(1); i <= 5; i++ {
		ss.Update(i, float64(i))
	}
	top := ss.Top(3)
	if len(top) != 3 || top[0].Key != 5 || top[1].Key != 4 || top[2].Key != 3 {
		t.Fatalf("Top = %+v", top)
	}
	all := ss.Top(100)
	if len(all) != 5 {
		t.Errorf("Top(100) = %d items", len(all))
	}
	cp := ss.Clone()
	cp.Update(9, 100)
	if _, ok := ss.idx.get(9); ok {
		t.Error("Clone shares state with original")
	}
	if est, _ := cp.Estimate(5); est != 5 {
		t.Errorf("clone estimate = %v", est)
	}
}

// TestQDigestCloneIndependence covers Clone.
func TestQDigestCloneIndependence(t *testing.T) {
	q := NewQDigest(16, 0.1)
	q.Update(3, 5)
	cp := q.Clone()
	cp.Update(3, 5)
	if q.Total() != 5 || cp.Total() != 10 {
		t.Errorf("totals: %v / %v", q.Total(), cp.Total())
	}
}

// TestErrorBoundStates covers ErrorBound before and after the summary
// fills.
func TestErrorBoundStates(t *testing.T) {
	ss := NewSpaceSavingK(2)
	if ss.ErrorBound() != 0 {
		t.Error("empty ErrorBound")
	}
	ss.Update(1, 3)
	if ss.ErrorBound() != 0 {
		t.Error("not-full ErrorBound must be 0")
	}
	ss.Update(2, 5)
	if ss.ErrorBound() != 3 {
		t.Errorf("full ErrorBound = %v, want min counter 3", ss.ErrorBound())
	}
}

// TestDominanceMergeEmptyIntoFull and full-into-empty branches.
func TestDominanceMergeEmptyBranches(t *testing.T) {
	full := NewDominance(16, 2, 8)
	for i := 0; i < 50; i++ {
		full.Update(uint64(i), float64(i%5))
	}
	empty := NewDominance(16, 2, 8)
	full.Merge(empty) // no-op
	if math.IsInf(full.LogEstimate(), -1) {
		t.Error("merge of empty destroyed estimate")
	}
	e2 := NewDominance(16, 2, 8)
	e2.Merge(full)
	if math.IsInf(e2.LogEstimate(), -1) {
		t.Error("merge into empty produced nothing")
	}
	// A base mismatch is refused with a typed error.
	other := NewDominance(16, 4, 8)
	other.Update(1, 1)
	var me *MismatchError
	if err := full.Merge(other); !errors.As(err, &me) || me.Param != "base" {
		t.Errorf("merge over another base: %v, want a base *MismatchError", err)
	}
}

// TestKMVHeapPop covers the container/heap Pop path (exercised only via
// interface plumbing otherwise).
func TestKMVHeapPop(t *testing.T) {
	var h maxHeap
	h.Push(uint64(5))
	h.Push(uint64(2))
	if got := h.Pop().(uint64); got != 2 {
		t.Errorf("Pop = %v (pops last element)", got)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
}
