package gsql_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/udaf"
)

// pickyAgg sums its int argument and refuses to merge a partial whose sum
// is 13: a Mergeable UDAF whose eviction merges can fail.
type pickyAgg struct{ n int64 }

func (a *pickyAgg) Step(args []gsql.Value) error   { a.n += args[0].AsInt(); return nil }
func (a *pickyAgg) Final() gsql.Value              { return gsql.Int(a.n) }
func (a *pickyAgg) MarshalBinary() ([]byte, error) { return binary.AppendVarint(nil, a.n), nil }
func (a *pickyAgg) UnmarshalBinary(b []byte) error {
	n, k := binary.Varint(b)
	if k != len(b) {
		return errors.New("picky: bad state")
	}
	a.n = n
	return nil
}
func (a *pickyAgg) Merge(o gsql.Aggregator) error {
	if o.(*pickyAgg).n == 13 {
		return errors.New("merge refused")
	}
	a.n += o.(*pickyAgg).n
	return nil
}

const pickyQuery = `select tb, dstIP, picky(len) from TCP group by time/60 as tb, dstIP`

// pickyTape, on a one-slot low table: key 0 (13) is evicted by key 1, born
// again with 13 and evicted again by key 1, so its second partial's merge
// into the first is refused at tuple 3; tuple 4 then lands on the slot the
// refused eviction freed.
func pickyTape() []gsql.Tuple {
	var tape []gsql.Tuple
	for i, ln := range []int64{13, 1, 13, 1, 1, 1, 2, 1, 5, 1} {
		tape = append(tape, pkt2(30, int64(i%2), 80, ln))
	}
	return tape
}

func pickyEngine(t *testing.T) *gsql.Engine {
	t.Helper()
	e := parallelEngine(t)
	err := e.RegisterUDAF(gsql.AggSpec{Name: "picky", MinArgs: 1, MaxArgs: 1, Mergeable: true,
		New: func() gsql.Aggregator { return &pickyAgg{} }})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEvictMergeErrorFreesSlot: an eviction whose merge fails costs its row
// and frees the slot — the next tuple probing it used to find a nil
// occupant and panic. Run.Push, Run.PushBatch and a MultiRun member all
// lose the one row and go on to the same rows.
func TestEvictMergeErrorFreesSlot(t *testing.T) {
	e := pickyEngine(t)
	st, err := e.Prepare(pickyQuery)
	if err != nil {
		t.Fatal(err)
	}
	opts := gsql.Options{LowLevelSlots: 1}
	tape := pickyTape()

	var want []gsql.Tuple
	run := st.Start(func(r gsql.Tuple) error { want = append(want, r); return nil }, opts)
	for i, tp := range tape {
		err := run.Push(tp)
		if (i == 3) != (err != nil) || err != nil && err.Error() != "merge refused" {
			t.Fatalf("Push %d: %v", i, err)
		}
	}
	wantCkpt, err := run.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || want[0][2].I != 13+1+2+5 || want[1][2].I != 1+1+1+1 {
		t.Fatalf("rows %v: want key 0 = 21 (its refused 13 lost) and key 1 = 4 (its row 3 lost)", want)
	}

	var got []gsql.Tuple
	run = st.Start(func(r gsql.Tuple) error { got = append(got, r); return nil }, opts)
	if _, err := run.PushBatch(toBatches(t, tape[:4], 4)[0]); err == nil || err.Error() != "merge refused" {
		t.Fatalf("PushBatch: %v", err)
	}
	if _, err := run.PushBatch(toBatches(t, tape[4:], 16)[0]); err != nil {
		t.Fatal(err)
	}
	ckpt, err := run.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, want, got, "PushBatch")
	if !bytes.Equal(ckpt, wantCkpt) {
		t.Fatal("PushBatch checkpoint differs from Push")
	}

	m, err := gsql.NewMultiRun(e, "TCP", opts)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	h, err := m.Attach(pickyQuery, 0, func(r gsql.Tuple) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatch(toBatches(t, tape, 16)[0]); err != nil {
		t.Fatal(err)
	}
	if qs := h.QueryStats(); qs.Quarantined || qs.Errors != 1 {
		t.Fatalf("member stats %+v: want one failed row and no fence", qs)
	}
	if ckpt, err = h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, want, got, "MultiRun")
	if !bytes.Equal(ckpt, wantCkpt) {
		t.Fatal("MultiRun checkpoint differs from Push")
	}
}

// sharedMember is one query of TestMultiSharedKeyTable: attached at tape
// row from (restored from the checkpoint member restoreOf had there, when
// restoreOf >= 0), detached at row until (-1: never); failAt makes its sink
// fail its failAt-th call (0: never).
type sharedMember struct {
	text      string
	from      int
	until     int
	restoreOf int
	failAt    int
	boom      bool
}

// failingSink collects rows, failing its failAt-th call.
func failingSink(rows *[]gsql.Tuple, failAt int) func(gsql.Tuple) error {
	calls := 0
	return func(r gsql.Tuple) error {
		if calls++; calls == failAt {
			return errors.New("sink refused")
		}
		*rows = append(*rows, r)
		return nil
	}
}

// TestMultiSharedKeyTable is the shared key table's differential: members
// of one class on one key list with different aggregates (builtins, decayed
// UDAFs) and one on a sub-list, folded on a netgen tape with an epoch roll,
// at 4 low slots (evicting every few rows), at 128 (growing, then
// evicting) and at the default. On the way a
// member attaches three rows before a bucket closes (its table still small
// beside its neighbours'), one is restored mid-tape, one detaches
// mid-bucket, one is fenced by a panicking UDAF and one's sink fails one
// flush. Every surviving member's rows, checkpoint bytes and Stats() must be
// those of a standalone Run.Push fed the same tuples from the same point,
// and members that group alike must share one table where they may.
func TestMultiSharedKeyTable(t *testing.T) {
	const k3 = " from TCP group by time/1 as tb, dstIP, destPort"
	members := []sharedMember{
		{text: "select tb, dstIP, destPort, count(*), sum(len)" + k3, until: -1, restoreOf: -1},
		{text: "select tb, dstIP, destPort, max(len), avg(float(len))" + k3, until: 37 * 256, restoreOf: -1},
		{text: "select tb, dstIP, destPort, fdcount(ftime), fdsum(ftime, float(len))" + k3, until: -1, restoreOf: -1},
		{text: "select tb, dstIP, min(len) from TCP group by time/1 as tb, dstIP", until: -1, restoreOf: -1},
		{text: "select tb, dstIP, destPort, count(*), sum(len)" + k3, until: -1, restoreOf: -1}, // from: set below
		{text: "select tb, dstIP, destPort, count(*), sum(len)" + k3, from: 51 * 256, until: -1, restoreOf: 0},
		{text: "select tb, dstIP, destPort, boom(len)" + k3, until: -1, restoreOf: -1, boom: true},
		{text: "select tb, dstIP, destPort, sum(len)" + k3, until: -1, restoreOf: -1, failAt: 7},
	}
	model := decay.NewForward(decay.NewExp(0.05), 0)
	e := parallelEngine(t)
	if err := udaf.RegisterAll(e, udaf.Config{Decay: model}); err != nil {
		t.Fatal(err)
	}
	steps := 0
	err := e.RegisterUDAF(gsql.AggSpec{Name: "boom", MinArgs: 1, MaxArgs: 1, Mergeable: true,
		New: func() gsql.Aggregator { return &boomAt{steps: &steps, at: 20_000} }})
	if err != nil {
		t.Fatal(err)
	}
	tape := trace(40_000, 0, 97)
	// Frames of 256 rows, and one cut three rows before the first bucket
	// closes, where member 4 attaches.
	edge := 0
	for tape[edge][0].I == tape[0][0].I {
		edge++
	}
	members[4].from = edge - 3
	var cuts []int
	for c := 0; c < len(tape); c += 256 {
		if c < edge-3 && edge-3 < c+256 {
			cuts = append(cuts, c, edge-3)
			continue
		}
		cuts = append(cuts, c)
	}
	cuts = append(cuts, len(tape))

	for _, slots := range []int{4, 128, 0} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			steps = 0
			opts := gsql.Options{LowLevelSlots: slots, Epoch: &gsql.EpochConfig{
				Model: model, Every: 3, TimeColumn: "ftime",
			}}
			m, err := gsql.NewMultiRun(e, "TCP", opts)
			if err != nil {
				t.Fatal(err)
			}
			hs := make([]*gsql.MultiHandle, len(members))
			rows := make([][]gsql.Tuple, len(members))
			ckpts := make([][]byte, len(members))
			at := make([][]byte, len(members)) // restore checkpoints, by batch of the restore
			stats := make([][2]uint64, len(members))
			rejoined := map[int]bool{} // late members seen folding through member 0's table
			for ci, c := range cuts {
				for i, mb := range members {
					sink := failingSink(&rows[i], mb.failAt)
					switch {
					case mb.from == c && mb.restoreOf >= 0:
						if at[i], err = hs[mb.restoreOf].Checkpoint(); err != nil {
							t.Fatal(err)
						}
						hs[i], err = m.Restore(mb.text, 0, at[i], sink)
					case mb.from == c:
						hs[i], err = m.Attach(mb.text, 0, sink)
					case mb.until == c:
						if ckpts[i], err = hs[i].Checkpoint(); err != nil {
							t.Fatal(err)
						}
						stats[i][0], stats[i][1] = hs[i].Stats()
						hs[i].Detach()
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if c == len(tape) {
					break
				}
				if _, err := m.PushBatch(toBatches(t, tape[c:cuts[ci+1]], 256)[0]); err != nil {
					t.Fatal(err)
				}
				for _, i := range []int{4, 5} {
					if hs[i] != nil && hs[i].QueryStats().KeyTable == hs[0].QueryStats().KeyTable {
						rejoined[i] = true
					}
				}
			}
			if q, reason := hs[6].QueryStats().Quarantined, hs[6].QueryStats().Reason; !q || reason != gsql.QuarantinePanic {
				t.Fatalf("boom member quarantined=%v reason=%q", q, reason)
			}
			if qs := hs[7].QueryStats(); qs.Errors != 1 || qs.Quarantined {
				t.Fatalf("failing-sink member %+v: want one failed row", qs)
			}
			if slots == 4 && !(rejoined[4] && rejoined[5]) {
				t.Errorf("late members rejoined the shared table: %v, want 4 and 5", rejoined)
			}
			for i, mb := range members {
				if mb.until < 0 && !mb.boom {
					if ckpts[i], err = hs[i].Checkpoint(); err != nil {
						t.Fatal(err)
					}
					stats[i][0], stats[i][1] = hs[i].Stats()
				}
			}
			// Closing one member of a shared table emits its rows only.
			before := len(rows[2])
			if err := hs[0].Close(); err != nil {
				t.Fatal(err)
			}
			if len(rows[2]) != before {
				t.Fatal("closing one member flushed its neighbour")
			}
			if err := m.CloseAll(); err != nil {
				t.Fatal(err)
			}

			for i, mb := range members {
				if mb.boom {
					continue
				}
				st, err := e.Prepare(mb.text)
				if err != nil {
					t.Fatal(err)
				}
				var want []gsql.Tuple
				sink := failingSink(&want, mb.failAt)
				var run *gsql.Run
				if mb.restoreOf >= 0 {
					if run, err = st.Restore(at[i], sink, opts); err != nil {
						t.Fatal(err)
					}
				} else {
					run = st.Start(sink, opts)
				}
				end := len(tape)
				if mb.until >= 0 {
					end = mb.until
				}
				for _, tp := range tape[mb.from:end] {
					_ = run.Push(tp) // a failed flush costs its row, as in the catalog
				}
				wantCkpt, err := run.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				wt, we := run.Stats()
				if mb.until < 0 {
					if err := run.Close(); err != nil {
						t.Fatal(err)
					}
				}
				label := fmt.Sprintf("member %d (%s)", i, mb.text)
				requireSameBits(t, want, rows[i], label)
				if !bytes.Equal(ckpts[i], wantCkpt) {
					t.Errorf("%s: checkpoint differs from its standalone run", label)
				}
				if stats[i] != [2]uint64{wt, we} {
					t.Errorf("%s: Stats %v, want %v", label, stats[i], [2]uint64{wt, we})
				}
			}
		})
	}
}

// boomAt counts steps across every group of every run and panics at the
// at-th.
type boomAt struct {
	steps *int
	at    int
	n     int64
}

func (b *boomAt) Step(args []gsql.Value) error {
	if *b.steps++; *b.steps == b.at {
		panic("boom: hostile aggregate")
	}
	b.n += args[0].AsInt()
	return nil
}
func (b *boomAt) Final() gsql.Value             { return gsql.Int(b.n) }
func (b *boomAt) Merge(o gsql.Aggregator) error { b.n += o.(*boomAt).n; return nil }

// TestMultiKeyTableStats: catalogs shaped like the served workloads report
// how many key tables their members fold through — serve_fwd's three
// (bucket, destination, port) queries share one beside the (bucket,
// destination) one, serve_io's two per-flow queries share one, and each of
// serve_catalog's classes folds through one.
func TestMultiKeyTableStats(t *testing.T) {
	e := parallelEngine(t)
	for _, c := range []struct {
		name    string
		queries []string
		want    int
	}{
		{"serve_fwd", goldenCatalogs[0].queries[:4], 2},
		{"serve_io", []string{goldenCatalogs[1].queries[0], goldenCatalogs[1].queries[1], goldenCatalogs[1].queries[1]}, 2},
		{"serve_catalog", goldenCatalogQueries(), 16},
	} {
		m, hs, _ := multiAttach(t, e, gsql.Options{}, c.queries)
		for _, b := range toBatches(t, trace(4096, 0, 5), 256) {
			if _, err := m.PushBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.MultiStats().KeyTables; got != c.want {
			t.Errorf("%s: %d key tables, want %d", c.name, got, c.want)
		}
		ids := map[uint64]bool{}
		for _, h := range hs {
			ids[h.QueryStats().KeyTable] = true
		}
		if len(ids) != c.want || ids[0] {
			t.Errorf("%s: members name tables %v, want %d distinct", c.name, ids, c.want)
		}
	}
}
