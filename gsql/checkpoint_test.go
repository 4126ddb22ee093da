package gsql_test

import (
	"strings"
	"testing"

	"forwarddecay/gsql"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/internal/faultinject"
	"forwarddecay/sketch"
)

// ckptQueryExact uses only order-insensitive aggregates (count, integer
// sum, min, max), so results are bit-identical regardless of how partial
// states were split and re-merged across a checkpoint boundary.
const ckptQueryExact = `select tb, dstIP, count(*), sum(len), min(len), max(len)
  from TCP group by time/60 as tb, dstIP`

// ckptQueryFloat adds float accumulation (avg, weighted float sum) whose
// value may depend on merge association; the keyed parallel path still
// reproduces it bit-identically because every group lives on one shard.
const ckptQueryFloat = `select tb, dstIP, count(*), avg(float(len)),
  sum(float(len)*(time % 60)*(time % 60))/3600
  from TCP group by time/60 as tb, dstIP`

// killRecoverSerial runs the statement serially, checkpoints after
// tuples[:cut], abandons the run (simulating a crash — rows emitted after
// the checkpoint are discarded, exactly what a restarted consumer would
// see), restores, and replays the remainder. Returns the combined rows.
func killRecoverSerial(t *testing.T, st *gsql.Statement, tuples []gsql.Tuple, cut int, opts gsql.Options) []gsql.Tuple {
	t.Helper()
	var rows []gsql.Tuple
	run := st.Start(func(row gsql.Tuple) error { rows = append(rows, row); return nil }, opts)
	for _, tp := range tuples[:cut] {
		if err := run.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := run.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mark := len(rows)
	// Simulate the crash: keep pushing into the doomed run (its output past
	// the checkpoint is discarded), then throw it away without Close.
	for _, tp := range tuples[cut:min(cut+100, len(tuples))] {
		if err := run.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	rows = rows[:mark]

	restored, err := st.Restore(ckpt, func(row gsql.Tuple) error { rows = append(rows, row); return nil }, opts)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, tp := range tuples[cut:] {
		if err := restored.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCheckpointRestoreSerial: a kill-and-recover cycle through the serial
// runtime reproduces the uninterrupted run's output — bit-identically for
// the order-insensitive aggregates, in both the two-level and flat
// configurations, at checkpoint cuts inside and at the edges of windows.
func TestCheckpointRestoreSerial(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(ckptQueryExact)
	if err != nil {
		t.Fatal(err)
	}
	tuples := trace(12_000, 0, 7)
	for _, opts := range []gsql.Options{{}, {DisableTwoLevel: true}} {
		want := serialRows(t, st, tuples, opts)
		if len(want) == 0 {
			t.Fatal("workload produced no rows")
		}
		for _, cut := range []int{1, 500, 6_000, len(tuples) - 1} {
			got := killRecoverSerial(t, st, tuples, cut, opts)
			requireIdentical(t, want, got, "serial kill/recover")
		}
	}
}

// TestCheckpointRestoreSerialFloatFlat: with the two-level split disabled
// each group has exactly one partial, so restore performs no re-merging and
// even float aggregates come back bit-identical across the kill.
func TestCheckpointRestoreSerialFloatFlat(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(ckptQueryFloat)
	if err != nil {
		t.Fatal(err)
	}
	tuples := trace(10_000, 0, 13)
	opts := gsql.Options{DisableTwoLevel: true}
	want := serialRows(t, st, tuples, opts)
	got := killRecoverSerial(t, st, tuples, 4_321, opts)
	requireIdentical(t, want, got, "serial float kill/recover")
}

// TestCheckpointCrossRuntime: a checkpoint taken by a standalone Run
// restores into a MultiRun member and vice versa — the format is
// runtime-independent, as the partial states are (§VI-B mergeability).
func TestCheckpointCrossRuntime(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(ckptQueryExact)
	if err != nil {
		t.Fatal(err)
	}
	tuples := trace(10_000, 0, 29)
	want := serialRows(t, st, tuples, gsql.Options{})
	cut := 4_000
	var rows []gsql.Tuple
	sink := func(row gsql.Tuple) error { rows = append(rows, row); return nil }

	// Standalone first half → catalog second half.
	run := st.Start(sink, gsql.Options{})
	for _, tp := range tuples[:cut] {
		if err := run.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := run.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	m, err := gsql.NewMultiRun(e, "TCP", gsql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(ckptQueryExact, 0, ckpt, sink); err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples[cut:] {
		if err := m.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, rows, "standalone→catalog")

	// Catalog first half → standalone second half.
	rows = nil
	m2, err := gsql.NewMultiRun(e, "TCP", gsql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m2.Attach(ckptQueryExact, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples[:cut] {
		if err := m2.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	ckpt2, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rows = nil
	run2, err := st.Restore(ckpt2, sink, gsql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples[cut:] {
		if err := run2.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := run2.Close(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, rows, "catalog→standalone")
}

// TestCheckpointUDAF: mergeable sketch UDAFs ride through checkpoint and
// restore via their own binary encodings; restored state is bit-identical
// to saved state, so the resumed run's answers match the uninterrupted run
// exactly here (same sketch state, same inputs).
func TestCheckpointUDAF(t *testing.T) {
	e := parallelEngine(t)
	registerCkptUDAFs(t, e)
	st, err := e.Prepare(`select tb, proto, sshhtop(dstIP, 1.0) from TCP group by time/60 as tb, proto`)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpointable(); err != nil {
		t.Fatalf("sketch UDAF not checkpointable: %v", err)
	}
	tuples := trace(8_000, 0, 37)
	want := serialRows(t, st, tuples, gsql.Options{DisableTwoLevel: true})
	got := killRecoverSerial(t, st, tuples, 3_500, gsql.Options{DisableTwoLevel: true})
	requireIdentical(t, want, got, "UDAF kill/recover")
}

// TestCheckpointableRejectsUnsupported: a statement with an aggregate that
// lacks the binary marshaling pair reports it by name, and Checkpoint
// fails rather than writing a partial state.
func TestCheckpointableRejectsUnsupported(t *testing.T) {
	e := parallelEngine(t)
	if err := e.RegisterUDAF(gsql.AggSpec{
		Name: "opaque", MinArgs: 1, MaxArgs: 1, Mergeable: true,
		New: func() gsql.Aggregator { return &opaqueAgg{} },
	}); err != nil {
		t.Fatal(err)
	}
	st, err := e.Prepare(`select tb, opaque(len) from TCP group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpointable(); err == nil {
		t.Fatal("Checkpointable accepted an unmarshalable aggregate")
	} else if !strings.Contains(err.Error(), "opaque") {
		t.Fatalf("error does not name the aggregate: %v", err)
	}
	run := st.Start(func(gsql.Tuple) error { return nil }, gsql.Options{})
	if _, err := run.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded for an unmarshalable aggregate")
	}
}

// opaqueAgg is mergeable but deliberately not binary-marshalable.
type opaqueAgg struct{ n int64 }

func (a *opaqueAgg) Step(args []gsql.Value) error { a.n++; return nil }
func (a *opaqueAgg) Final() gsql.Value            { return gsql.Int(a.n) }
func (a *opaqueAgg) Merge(o gsql.Aggregator) error {
	a.n += o.(*opaqueAgg).n
	return nil
}

// TestRestoreRejectsWrongStatement: a checkpoint can only be restored into
// the statement (query text + schema) that wrote it.
func TestRestoreRejectsWrongStatement(t *testing.T) {
	e := parallelEngine(t)
	st, err := e.Prepare(ckptQueryExact)
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.Prepare(`select tb, count(*) from TCP group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	run := st.Start(func(gsql.Tuple) error { return nil }, gsql.Options{})
	for _, tp := range trace(500, 0, 3) {
		if err := run.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := run.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Restore(ckpt, func(gsql.Tuple) error { return nil }, gsql.Options{}); err == nil {
		t.Fatal("checkpoint restored into a different statement")
	} else if !strings.Contains(err.Error(), "different statement") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestCorruptCheckpointAlwaysErrors: flipping any single byte of a valid
// checkpoint — or truncating it anywhere — must make restore return an
// error, never panic and never silently succeed. The trailing integrity
// hash is what makes this total: payload bytes carry no internal
// redundancy of their own.
func TestCorruptCheckpointAlwaysErrors(t *testing.T) {
	e := parallelEngine(t)
	registerCkptUDAFs(t, e)
	st, err := e.Prepare(`select tb, dstIP, count(*), sum(len), avg(float(len)), sshhtop(srcIP, 1.0)
	  from TCP group by time/60 as tb, dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	run := st.Start(func(gsql.Tuple) error { return nil }, gsql.Options{})
	for _, tp := range trace(2_000, 0, 5) {
		if err := run.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := run.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sink := func(gsql.Tuple) error { return nil }

	// The pristine bytes restore.
	if _, err := st.Restore(ckpt, sink, gsql.Options{}); err != nil {
		t.Fatalf("pristine checkpoint failed to restore: %v", err)
	}

	// Single-byte corruption at seeded positions (CorruptByte spreads the
	// positions across the whole blob, including the hash itself).
	for seed := uint64(0); seed < 500; seed++ {
		bad := faultinject.CorruptByte(ckpt, seed)
		if _, err := st.Restore(bad, sink, gsql.Options{}); err == nil {
			t.Fatalf("corrupt checkpoint (seed %d) restored without error", seed)
		}
	}

	// Every truncation fails too.
	for cut := 0; cut < len(ckpt); cut += 7 {
		if _, err := st.Restore(ckpt[:cut], sink, gsql.Options{}); err == nil {
			t.Fatalf("truncated checkpoint (%d bytes) restored without error", cut)
		}
	}
}

// ssTopCkptAgg is a checkpointable SpaceSaving UDAF: weighted updates,
// top-key result, and binary marshaling delegated to the sketch's own
// encoding — the pattern the udaf package uses for sshh.
type ssTopCkptAgg struct{ ss *sketch.SpaceSaving }

func (a *ssTopCkptAgg) Step(args []gsql.Value) error {
	a.ss.Update(uint64(args[0].AsInt()), args[1].AsFloat())
	return nil
}

func (a *ssTopCkptAgg) Final() gsql.Value {
	top := a.ss.Top(1)
	if len(top) == 0 {
		return gsql.Null
	}
	return gsql.Int(int64(top[0].Key))
}

func (a *ssTopCkptAgg) Merge(o gsql.Aggregator) error {
	a.ss.Merge(o.(*ssTopCkptAgg).ss)
	return nil
}

func (a *ssTopCkptAgg) MarshalBinary() ([]byte, error) { return a.ss.MarshalBinary() }
func (a *ssTopCkptAgg) UnmarshalBinary(b []byte) error { return a.ss.UnmarshalBinary(b) }

// registerCkptUDAFs installs the checkpointable sketch UDAF used by the
// checkpoint tests.
func registerCkptUDAFs(t *testing.T, e *gsql.Engine) {
	t.Helper()
	if err := e.RegisterUDAF(gsql.AggSpec{
		Name: "sshhtop", MinArgs: 2, MaxArgs: 2, Mergeable: true,
		New: func() gsql.Aggregator { return &ssTopCkptAgg{ss: sketch.NewSpaceSavingK(64)} },
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreKeepsNoInput: a restored run holds nothing of the checkpoint
// bytes — overwriting them after the restore leaves its state, string group
// keys and string partials included, as it was.
func TestRestoreKeepsNoInput(t *testing.T) {
	st, err := flowEngine(t).Prepare(`select host, count(*), min(host), max(len) from FLOW group by host`)
	if err != nil {
		t.Fatal(err)
	}
	nop := func(gsql.Tuple) error { return nil }
	run := st.Start(nop, gsql.Options{})
	for _, tp := range positiveX(flowTuples(500, 3)) {
		if err := run.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := run.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var restored *gsql.Run
	codectest.NoRetain(t, ckpt, func(b []byte) (err error) {
		restored, err = st.Restore(b, nop, gsql.Options{})
		return err
	}, func() ([]byte, error) { return restored.Checkpoint() })
}
