package gsql_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"forwarddecay/gsql"
)

// Isolation suite: a MultiRun must fence hostile queries (erroring,
// panicking, cardinality-bombing — Options.Isolate sets the limits) into
// quarantine while every other query's output stays bit-for-bit identical to
// an oracle catalog that never contained the offender — the blast radius of
// a bad query is that query.

// isoOpts returns Options with the given isolation config.
func isoOpts(cfg gsql.IsolateConfig) gsql.Options {
	return gsql.Options{Isolate: &cfg}
}

// Poison fixtures. The erroring query divides by zero on every tuple; the
// cardinality bomb groups by raw len (hundreds of live groups per bucket);
// the panicking query steps a UDAF that panics.
const (
	poisonErrQuery  = `select tb, sum(len / (len - len)) from TCP group by time/60 as tb`
	poisonCardQuery = `select tb, len, count(*) from TCP group by time/60 as tb, len`
	poisonBoomQuery = `select tb, boom(len) from TCP group by time/60 as tb`
)

type boomAgg struct{}

func (boomAgg) Step(args []gsql.Value) error { panic("boom: hostile aggregate") }
func (boomAgg) Final() gsql.Value            { return gsql.Int(0) }

func registerBoom(t *testing.T, e *gsql.Engine) {
	t.Helper()
	err := e.RegisterUDAF(gsql.AggSpec{
		Name: "boom", MinArgs: 1, MaxArgs: 1,
		New: func() gsql.Aggregator { return boomAgg{} },
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runIsoDifferential attaches the survivor fixtures plus one poison query,
// feeds the trace (scalar or batch), asserts the poison lands in quarantine
// with the expected reason — or, for wantReason "", stays attached with its
// failures counted — and requires every survivor bit-for-bit identical (rows
// and checkpoint) to a standalone run that never saw the poison. A nil cfg
// is Options{}: the zero config, with no callback to observe.
func runIsoDifferential(t *testing.T, e *gsql.Engine, cfg *gsql.IsolateConfig, poison, wantReason string, batch bool) {
	t.Helper()
	tuples := trace(12_000, 0, 71)

	var events []gsql.QuarantineEvent
	opts := gsql.Options{}
	if cfg != nil {
		cfg.OnQuarantine = func(ev gsql.QuarantineEvent) { events = append(events, ev) }
		opts.Isolate = cfg
	}
	m, handles, rows := multiAttach(t, e, opts, multiQueries)
	ph, err := m.Attach(poison, 0, func(gsql.Tuple) error { return nil })
	if err != nil {
		t.Fatalf("attach poison: %v", err)
	}
	ph.SetTag("poison")

	if batch {
		for _, b := range toBatches(t, tuples, 256) {
			if _, err := m.PushBatch(b); err != nil {
				t.Fatalf("multi pushbatch: %v", err)
			}
		}
	} else {
		for _, tp := range tuples {
			if err := m.Push(tp); err != nil {
				t.Fatalf("multi push: %v", err)
			}
		}
	}

	qs := ph.QueryStats()
	if wantReason == "" {
		// No breaker: every failed fold is counted, the streak never fences.
		if q := ph.QueryStats().Quarantined; q || len(events) != 0 || m.MultiStats().Quarantined != 0 {
			t.Fatalf("poison fenced with no breaker set: %+v, events %+v", qs, events)
		}
		if qs.Errors < 16 || qs.ConsecErrors != int(qs.Errors) {
			t.Fatalf("poison QueryStats = %+v, want every failed fold counted", qs)
		}
	} else {
		if q, reason := ph.QueryStats().Quarantined, ph.QueryStats().Reason; !q || reason != wantReason {
			t.Fatalf("poison quarantined=%v reason=%q, want true/%q", q, reason, wantReason)
		}
		if cfg != nil && (len(events) != 1 || events[0].Reason != wantReason || events[0].Tag != "poison") {
			t.Fatalf("quarantine events = %+v, want one %q event tagged poison", events, wantReason)
		}
		if s := m.MultiStats(); s.Quarantined != 1 || s.Queries != len(multiQueries)+1 {
			t.Errorf("stats after quarantine: %+v", s)
		}
		if !qs.Quarantined || qs.Reason != wantReason {
			t.Errorf("poison QueryStats = %+v", qs)
		}
	}

	ckpts := make([][]byte, len(handles))
	for i, h := range handles {
		if ckpts[i], err = h.Checkpoint(); err != nil {
			t.Fatalf("survivor checkpoint %d: %v", i, err)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}

	for i, q := range multiQueries {
		var wantRows []gsql.Tuple
		var wantCkpt []byte
		if batch {
			st, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			run := st.Start(func(r gsql.Tuple) error { wantRows = append(wantRows, r); return nil }, gsql.Options{})
			for _, b := range toBatches(t, tuples, 256) {
				if _, err := run.PushBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			if wantCkpt, err = run.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			wantRows, wantCkpt = standaloneRun(t, e, q, tuples, gsql.Options{})
		}
		requireIdentical(t, wantRows, *rows[i], fmt.Sprintf("survivor %d", i))
		if !bytes.Equal(wantCkpt, ckpts[i]) {
			t.Errorf("survivor %d: checkpoint differs from the poison-free oracle", i)
		}
	}
}

func TestMultiQuarantineBreaker(t *testing.T) {
	for _, batch := range []bool{false, true} {
		name := "scalar"
		if batch {
			name = "batch"
		}
		t.Run(name, func(t *testing.T) {
			e := parallelEngine(t)
			runIsoDifferential(t, e, &gsql.IsolateConfig{BreakerErrors: 5},
				poisonErrQuery, gsql.QuarantineBreaker, batch)
		})
	}
}

func TestMultiQuarantineCardinality(t *testing.T) {
	for _, batch := range []bool{false, true} {
		name := "scalar"
		if batch {
			name = "batch"
		}
		t.Run(name, func(t *testing.T) {
			e := parallelEngine(t)
			runIsoDifferential(t, e, &gsql.IsolateConfig{MaxGroups: 64},
				poisonCardQuery, gsql.QuarantineCardinality, batch)
		})
	}
}

func TestMultiQuarantinePanic(t *testing.T) {
	for _, batch := range []bool{false, true} {
		name := "scalar"
		if batch {
			name = "batch"
		}
		t.Run(name, func(t *testing.T) {
			e := parallelEngine(t)
			registerBoom(t, e)
			runIsoDifferential(t, e, &gsql.IsolateConfig{},
				poisonBoomQuery, gsql.QuarantinePanic, batch)
		})
	}
}

// TestMultiQuarantineSink: MultiHandle.Fault fences a member from outside
// its fold (a caller that could not take its rows) — one QuarantineSink
// event with the cause, once however often it is called — and a second
// member sharing its shape goes on bit-identical to a standalone run.
func TestMultiQuarantineSink(t *testing.T) {
	e := parallelEngine(t)
	tuples := trace(12_000, 0, 73)
	var events []gsql.QuarantineEvent
	opts := isoOpts(gsql.IsolateConfig{OnQuarantine: func(ev gsql.QuarantineEvent) { events = append(events, ev) }})
	q := multiQueries[2]
	m, handles, rows := multiAttach(t, e, opts, []string{q, q})
	cause := errors.New("no room for the rows")
	for i, tp := range tuples {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
		if i == len(tuples)/2 {
			handles[1].Fault(cause)
			handles[1].Fault(cause)
		}
	}
	if qs := handles[1].QueryStats(); !qs.Quarantined || qs.Reason != gsql.QuarantineSink {
		t.Fatalf("faulted member: %+v", qs)
	}
	if len(events) != 1 || events[0].Reason != gsql.QuarantineSink || !errors.Is(events[0].Err, cause) {
		t.Fatalf("quarantine events = %+v, want one sink event with its cause", events)
	}
	ck, err := handles[0].Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	wantRows, wantCkpt := standaloneRun(t, e, q, tuples, gsql.Options{})
	requireIdentical(t, wantRows, *rows[0], "the faulted member's neighbour")
	if !bytes.Equal(ck, wantCkpt) {
		t.Error("the faulted member's neighbour: checkpoint differs from a standalone run")
	}
}

// TestMultiIsolationZeroConfig states the contract of Options{} (no
// IsolateConfig): isolation is the runtime, not a mode. A member's error is
// counted in QueryStats.Errors and the tuple continues for its neighbours, a
// member's panic quarantines it, and nothing trips a breaker.
func TestMultiIsolationZeroConfig(t *testing.T) {
	for _, batch := range []bool{false, true} {
		name := "scalar"
		if batch {
			name = "batch"
		}
		t.Run(name, func(t *testing.T) {
			e := parallelEngine(t)
			registerBoom(t, e)
			runIsoDifferential(t, e, nil, poisonErrQuery, "", batch)
			runIsoDifferential(t, e, nil, poisonBoomQuery, gsql.QuarantinePanic, batch)
		})
	}
}

// TestMultiAdmissionControl: an attach whose private-cost estimate blows
// the catalog budget fails with *AdmissionError and perturbs nothing;
// detaching frees its budget back.
func TestMultiAdmissionControl(t *testing.T) {
	e := parallelEngine(t)
	cheapQ := multiQueries[0]
	richQ := multiQueries[3]

	// Probe the cost model on an unbudgeted runtime to pick a budget
	// between "cheapQ alone" and "cheapQ plus richQ".
	probe, err := gsql.NewMultiRun(e, "TCP", isoOpts(gsql.IsolateConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Attach(cheapQ, 0, func(gsql.Tuple) error { return nil }); err != nil {
		t.Fatal(err)
	}
	usedA := probe.MultiStats().AdmitUsed
	if usedA <= 0 {
		t.Fatalf("AdmitUsed = %v after one attach, want > 0", usedA)
	}
	if _, err := probe.Attach(richQ, 0, func(gsql.Tuple) error { return nil }); err != nil {
		t.Fatal(err)
	}
	usedAB := probe.MultiStats().AdmitUsed
	if usedAB <= usedA {
		t.Fatalf("AdmitUsed did not grow: %v -> %v", usedA, usedAB)
	}
	budget := (usedA + usedAB) / 2

	m, err := gsql.NewMultiRun(e, "TCP", isoOpts(gsql.IsolateConfig{AdmitBudget: budget}))
	if err != nil {
		t.Fatal(err)
	}
	var rows []gsql.Tuple
	ha, err := m.Attach(cheapQ, 0, func(r gsql.Tuple) error { rows = append(rows, r); return nil })
	if err != nil {
		t.Fatalf("attach under budget: %v", err)
	}
	tuples := trace(3_000, 0, 79)
	for _, tp := range tuples[:1500] {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	before := m.MultiStats()

	_, err = m.Attach(richQ, 0, func(gsql.Tuple) error { return nil })
	var adm *gsql.AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("over-budget attach error = %v, want *AdmissionError", err)
	}
	if adm.Budget != budget || adm.Used != before.AdmitUsed || adm.EstCost <= 0 {
		t.Errorf("admission error fields = %+v", adm)
	}
	after := m.MultiStats()
	if after.Queries != before.Queries || after.DistinctTexts != before.DistinctTexts ||
		after.Classes != before.Classes || after.KeyTables != before.KeyTables ||
		after.AdmitUsed != before.AdmitUsed {
		t.Errorf("rejected attach perturbed the catalog: %+v -> %+v", before, after)
	}

	// The running member is unaffected by the rejection.
	for _, tp := range tuples[1500:] {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	want, _ := standaloneRun(t, e, cheapQ, tuples, gsql.Options{})
	requireIdentical(t, want, rows, "member across a rejected attach")

	// Detach releases the budget; the previously rejected query now fits.
	ha.Detach()
	if u := m.MultiStats().AdmitUsed; u != 0 {
		t.Fatalf("AdmitUsed = %v after detach, want 0", u)
	}
	if _, err := m.Attach(richQ, 0, func(gsql.Tuple) error { return nil }); err != nil {
		t.Fatalf("attach after budget freed: %v", err)
	}
}

// TestMultiReviveAfterQuarantine: an operator revive re-links a fenced
// query from its retained checkpoint — class membership, key table and
// admission budget come back, the breaker resets, and folding resumes.
func TestMultiReviveAfterQuarantine(t *testing.T) {
	e := parallelEngine(t)
	q := `select tb, sum(len / (len - 100)) from TCP group by time/60 as tb`
	var events []gsql.QuarantineEvent
	m, err := gsql.NewMultiRun(e, "TCP", isoOpts(gsql.IsolateConfig{
		BreakerErrors: 3,
		OnQuarantine:  func(ev gsql.QuarantineEvent) { events = append(events, ev) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	var rows []gsql.Tuple
	h, err := m.Attach(q, 0, func(r gsql.Tuple) error { rows = append(rows, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Revive(); err == nil {
		t.Error("revive of a healthy query succeeded")
	}

	clean := func(sec int64, n int) []gsql.Tuple {
		out := make([]gsql.Tuple, n)
		for i := range out {
			out[i] = pkt2(sec, int64(i%4), 80, 200+int64(i%7))
		}
		return out
	}
	phase1 := clean(10, 50)
	for _, tp := range phase1 {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	// A burst of len=100 tuples divides by zero and trips the breaker.
	for i := 0; i < 3; i++ {
		if err := m.Push(pkt2(20, 1, 80, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if q, reason := h.QueryStats().Quarantined, h.QueryStats().Reason; !q || reason != gsql.QuarantineBreaker {
		t.Fatalf("quarantined=%v reason=%q", q, reason)
	}
	if len(events) != 1 || events[0].Retained == nil {
		t.Fatalf("expected one quarantine event with a retained checkpoint, got %+v", events)
	}
	baseUsed := m.MultiStats().AdmitUsed
	if baseUsed != 0 {
		t.Fatalf("AdmitUsed = %v while the only query is quarantined, want 0", baseUsed)
	}

	if err := h.Revive(); err != nil {
		t.Fatalf("revive: %v", err)
	}
	if q := h.QueryStats().Quarantined; q {
		t.Fatal("still quarantined after revive")
	}
	if m.MultiStats().AdmitUsed <= 0 {
		t.Error("revive did not restore the admission budget charge")
	}
	phase2 := clean(70, 50) // next bucket: flushes the retained phase-1 state
	for _, tp := range phase2 {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}

	// Oracle: a standalone run that saw only the clean tuples. The retained
	// checkpoint preserved phase-1 aggregation, so the revived query's rows
	// must match.
	want, _ := standaloneRun(t, e, q, append(append([]gsql.Tuple{}, phase1...), phase2...), gsql.Options{})
	requireIdentical(t, want, rows, "revived query rows")

	// Double-revive is rejected; detach of a revived query is clean.
	if err := h.Revive(); err == nil {
		t.Error("revive of a non-quarantined query succeeded")
	}
}

// TestMultiQuarantineDetach: detaching a fenced query forgets it without
// touching the catalog twice (the quarantine already released everything).
func TestMultiQuarantineDetach(t *testing.T) {
	e := parallelEngine(t)
	m, handles, _ := multiAttach(t, e, isoOpts(gsql.IsolateConfig{BreakerErrors: 2}), multiQueries)
	ph, err := m.Attach(poisonErrQuery, 0, func(gsql.Tuple) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range trace(100, 0, 83) {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if q := ph.QueryStats().Quarantined; !q {
		t.Fatal("poison not quarantined")
	}
	used := m.MultiStats().AdmitUsed
	ph.Detach()
	if s := m.MultiStats(); s.Queries != len(multiQueries) || s.Quarantined != 0 {
		t.Errorf("stats after detaching quarantined query: %+v", s)
	}
	if m.MultiStats().AdmitUsed != used {
		t.Error("detach of a quarantined query double-released its budget")
	}
	if err := ph.Revive(); err == nil {
		t.Error("revive of a detached query succeeded")
	}
	// Catalog still healthy.
	if err := m.Push(pkt2(9999, 1, 80, 300)); err != nil {
		t.Fatal(err)
	}
	_ = handles
}

// TestMultiInternerChurnRuntime: 10k attach/detach of distinct queries must
// return the runtime's statement catalog, predicate classes and key tables
// to their pre-churn size — the leak regression at the MultiRun level. The
// churn's `len > 200` queries join a resident class on a key list of their
// own, so each lists a key table there that its detach must drop.
func TestMultiInternerChurnRuntime(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	e := parallelEngine(t)
	m, _, rows := multiAttach(t, e, gsql.Options{}, multiQueries)
	base := m.MultiStats()

	for i := 0; i < n; i++ {
		q := fmt.Sprintf(
			`select tb, count(*), sum(len + %d) from TCP where len > %d group by time/60 as tb`, i, i%1400)
		h, err := m.Attach(q, 0, func(gsql.Tuple) error { return nil })
		if err != nil {
			t.Fatalf("churn attach %d: %v", i, err)
		}
		h.Detach()
	}

	s := m.MultiStats()
	if s.KeyTables != base.KeyTables {
		t.Errorf("KeyTables = %d after churn, want baseline %d (key-table leak)",
			s.KeyTables, base.KeyTables)
	}
	if s.DistinctTexts != base.DistinctTexts || s.Classes != base.Classes || s.Queries != base.Queries {
		t.Errorf("catalog after churn: %+v, want baseline %+v", s, base)
	}

	// The resident queries still run correctly after the churn.
	tuples := trace(5_000, 0, 89)
	for _, tp := range tuples {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	want, _ := standaloneRun(t, e, multiQueries[0], tuples, gsql.Options{})
	requireIdentical(t, want, *rows[0], "resident query after churn")
}

// TestMultiDetachUnderLoad: the lifecycle suite. PushBatch interleaves with
// attach/detach churn, close-then-detach churn and mid-stream quarantines;
// survivors must stay bit-for-bit with an oracle that never saw the churned
// queries.
func TestMultiDetachUnderLoad(t *testing.T) {
	e := parallelEngine(t)
	registerBoom(t, e)
	tuples := trace(12_000, 0, 97)
	batches := toBatches(t, tuples, 250)

	m, handles, rows := multiAttach(t, e, isoOpts(gsql.IsolateConfig{BreakerErrors: 4}), multiQueries)

	var churn *gsql.MultiHandle
	var churnClosed *gsql.MultiHandle
	for bi, b := range batches {
		switch bi % 8 {
		case 1: // attach a distinct throwaway query
			q := fmt.Sprintf(`select tb, count(*), sum(len * %d) from TCP where len > %d group by time/60 as tb`, bi, bi%900)
			h, err := m.Attach(q, 0, func(gsql.Tuple) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			churn = h
		case 3: // ...and detach it two batches later
			if churn != nil {
				churn.Detach()
				churn = nil
			}
		case 4: // a second throwaway, in a class of its own
			h, err := m.Attach(fmt.Sprintf(`select tb, dstIP, sum(len + %d) from TCP where len > 300 group by time/60 as tb, dstIP`, bi), 0,
				func(gsql.Tuple) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			churnClosed = h
		case 6: // ...flushed before it is detached
			if churnClosed != nil {
				if err := churnClosed.Close(); err != nil {
					t.Fatal(err)
				}
				churnClosed.Detach()
				churnClosed = nil
			}
		case 7: // poison churn: a panicking query quarantines mid-stream
			h, err := m.Attach(poisonBoomQuery, 0, func(gsql.Tuple) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			h.SetTag(bi)
			defer func(h *gsql.MultiHandle) {
				if q := h.QueryStats().Quarantined; !q {
					t.Error("poison churn query was not quarantined")
				}
				h.Detach()
			}(h)
		}
		if _, err := m.PushBatch(b); err != nil {
			t.Fatalf("pushbatch %d: %v", bi, err)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}

	for i, q := range multiQueries {
		st, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		var want []gsql.Tuple
		run := st.Start(func(r gsql.Tuple) error { want = append(want, r); return nil }, gsql.Options{})
		for _, b := range toBatches(t, tuples, 250) {
			if _, err := run.PushBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := run.Close(); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, *rows[i], fmt.Sprintf("survivor %d under churn", i))
	}
	_ = handles
}

// TestMultiQueryStatsAttribution: per-query counters — tuples, errors,
// quarantine state, the cost estimate and its measured EWMA — and the
// top-N ordering.
func TestMultiQueryStatsAttribution(t *testing.T) {
	e := parallelEngine(t)
	m, handles, _ := multiAttach(t, e, gsql.Options{}, multiQueries[:3])
	tuples := trace(2_000, 0, 101)
	for _, tp := range tuples {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	var all []gsql.QueryStats
	for _, h := range handles {
		all = append(all, h.QueryStats())
	}
	for i, qs := range all {
		if qs.ID != uint64(i) {
			t.Errorf("handle %d reports id %d", i, qs.ID)
		}
		if qs.Tuples != uint64(len(tuples)) {
			t.Errorf("query %d Tuples = %d, want %d", i, qs.Tuples, len(tuples))
		}
		if qs.EstCostNs <= 0 {
			t.Errorf("query %d EstCostNs = %v, want > 0", i, qs.EstCostNs)
		}
		if qs.NsPerTuple <= 0 {
			t.Errorf("query %d NsPerTuple = %v, want > 0 after sampling", i, qs.NsPerTuple)
		}
		if qs.Errors != 0 || qs.Quarantined {
			t.Errorf("healthy query %d reports faults: %+v", i, qs)
		}
	}
	// The unfiltered query folds every tuple; it must report live groups.
	if all[2].Groups == 0 {
		t.Error("unfiltered query reports no live groups")
	}
	if hs := handles[0].QueryStats(); hs.ID != 0 || hs.Text != multiQueries[0] {
		t.Errorf("handle stats = %+v", hs)
	}

	top := gsql.TopExpensive(all, 2)
	if len(top) != 2 {
		t.Fatalf("TopExpensive returned %d, want 2", len(top))
	}
	if top[0].NsPerTuple < top[1].NsPerTuple {
		t.Error("TopExpensive not sorted descending")
	}
	for _, n := range []int{0, -1, -len(all) - 1} {
		if top := gsql.TopExpensive(all, n); len(top) != 0 {
			t.Errorf("TopExpensive(n=%d) returned %d queries, want none", n, len(top))
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
}
