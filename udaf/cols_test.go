package udaf

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/sketch"
)

// batchQuery runs q over tuples through Run.PushBatch in frames of frame rows.
func batchQuery(t *testing.T, e *gsql.Engine, q string, tuples []gsql.Tuple, frame int) []gsql.Tuple {
	t.Helper()
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("prepare %q: %v", q, err)
	}
	var rows []gsql.Tuple
	r := st.Start(func(row gsql.Tuple) error { rows = append(rows, row); return nil }, gsql.Options{})
	b, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	for len(tuples) > 0 {
		n := min(frame, len(tuples))
		b.Reset()
		for _, tp := range tuples[:n] {
			if err := b.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.PushBatch(b); err != nil {
			t.Fatal(err)
		}
		tuples = tuples[n:]
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// hhCounts parses a "key:count,…" rendering.
func hhCounts(t *testing.T, s string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	if s == "" {
		return out
	}
	for _, p := range strings.Split(s, ",") {
		k, c, ok := strings.Cut(p, ":")
		f, err := strconv.ParseFloat(c, 64)
		if !ok || err != nil {
			t.Fatalf("bad heavy-hitter item %q", p)
		}
		out[k] = f
	}
	return out
}

func closeRel(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestShiftedTimestampsAgree: exponential decay is translation-invariant, so
// moving every timestamp about 10⁶ back — all of them negative — must leave
// every time-dependent final as it was, on the scalar and the batch fold. A
// group finalises at its latest timestamp, not at 0. The shift is a whole
// number of windows, so swhh's dyadic blocks keep their boundaries.
func TestShiftedTimestampsAgree(t *testing.T) {
	e := newEngine(t, Config{Decay: decay.NewForward(decay.NewExp(0.1), 0)})
	tuples := packetTuples(12000, 100, 5)
	q := func(ts string) string {
		return fmt.Sprintf("select tb, fdcount(%[1]s), fdsum(%[1]s, float(len)), fdhh(dstIP, %[1]s), "+
			"fdcard(dstIP, %[1]s), swhh(dstIP, %[1]s, float(1)), ehsum(%[1]s, float(len)) "+
			"from TCP group by time/60 as tb", ts)
	}
	for _, path := range []string{"push", "batch"} {
		run := func(q string) []gsql.Tuple {
			if path == "push" {
				return runQuery(t, e, q, tuples)
			}
			return batchQuery(t, e, q, tuples, 256)
		}
		base, shifted := run(q("ftime")), run(q("ftime - 1000020.0"))
		if len(base) < 2 || len(base) != len(shifted) {
			t.Fatalf("%s: %d rows, shifted %d", path, len(base), len(shifted))
		}
		for i, row := range base {
			for c := 1; c < len(row); c++ {
				x, y := row[c], shifted[i][c]
				if x.T == gsql.TFloat {
					if x.F == 0 || !closeRel(x.F, y.F, 1e-9) {
						t.Errorf("%s row %d col %d: %v, shifted %v", path, i, c, x.F, y.F)
					}
					continue
				}
				xs, ys := hhCounts(t, x.S), hhCounts(t, y.S)
				if len(xs) == 0 || len(xs) != len(ys) {
					t.Errorf("%s row %d col %d: %q, shifted %q", path, i, c, x.S, y.S)
				}
				for k, v := range xs {
					if !closeRel(v, ys[k], 1e-9) {
						t.Errorf("%s row %d col %d key %s: %v, shifted %v", path, i, c, k, v, ys[k])
					}
				}
			}
		}
	}
}

// TestMomentsShareFrame: fdcount, fdsum, fdavg and fdvar over one timestamp
// and value read one frame (the plan links them), and every column is the
// bits of the same aggregate planned alone, on both folds — including a
// value that is +Inf on some rows, which the sums reject and the count
// still counts.
func TestMomentsShareFrame(t *testing.T) {
	e := newEngine(t, Config{Decay: decay.NewForward(decay.NewExp(0.1), 0)})
	tuples := packetTuples(6000, 100, 6)
	const by = " from TCP group by time/60 as tb"
	for _, v := range []string{"float(len)", "len", "float(len)/float(len%7)"} {
		aggs := []string{"fdcount(ftime)", "fdsum(ftime, " + v + ")", "fdavg(ftime, " + v + ")", "fdvar(ftime, " + v + ")"}
		q := "select tb, " + strings.Join(aggs, ", ") + by
		st, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if d := st.Describe(); !strings.Contains(d, "shared=[[0 1] [2 1] [3 1]]") {
			t.Errorf("%q: plan %s, want slots 0, 2 and 3 reading slot 1", q, d)
		}
		for _, frame := range []int{0, 7, 256} {
			run := func(q string) []gsql.Tuple {
				if frame == 0 {
					return runQuery(t, e, q, tuples)
				}
				return batchQuery(t, e, q, tuples, frame)
			}
			shared := run(q)
			for c, a := range aggs {
				alone := run("select tb, " + a + by)
				if len(alone) != len(shared) {
					t.Fatalf("%s: %d rows alone, %d shared", a, len(alone), len(shared))
				}
				for i := range alone {
					if x, y := alone[i][1].F, shared[i][c+1].F; math.Float64bits(x) != math.Float64bits(y) {
						t.Errorf("frame %d %s row %d: alone %v, shared %v", frame, a, i, x, y)
					}
				}
			}
		}
	}
}

// TestForeignBaseDistinctMergeErrors: a decoded fddistinct partial over
// another level ratio is refused at merge with the sketch's typed error —
// through agg.Distinct too — instead of panicking.
func TestForeignBaseDistinctMergeErrors(t *testing.T) {
	foreign := &fddistinctAgg{s: sketch.NewDominance(1024, 2, 1024)}
	foreign.s.Update(7, 1.5)
	b, err := foreign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec := &fddistinctAgg{s: sketch.NewDominance(1024, 1.05, 1024)}
	if err := dec.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	live := &fddistinctAgg{s: sketch.NewDominance(1024, 1.05, 1024)}
	live.s.Update(3, 0.5)
	var me *sketch.MismatchError
	if err := live.Merge(dec); !errors.As(err, &me) || me.Param != "base" {
		t.Fatalf("merging a foreign-base partial: %v, want a base *sketch.MismatchError", err)
	}
	m := decay.NewForward(decay.NewExp(0.1), 0)
	x, y := agg.NewDistinct(m, 64, 1.05, 64), agg.NewDistinct(m, 64, 2, 64)
	x.Observe(1, 1)
	y.Observe(2, 1)
	if err := x.Merge(y); !errors.As(err, &me) {
		t.Fatalf("agg.Distinct merge over another base: %v, want *sketch.MismatchError", err)
	}
}

// TestLastTSUnsetRoundTrip: a group that saw no finite timestamp encodes −0
// and restores unset, so its first negative timestamp still sets it; a set
// one restores as it was.
func TestLastTSUnsetRoundTrip(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.1), 0)
	for _, ts := range []float64{math.NaN(), 0, -5, 42} {
		a := newMoments(m, fdCount)
		if err := a.Step([]gsql.Value{gsql.Float(ts)}); err != nil {
			t.Fatal(err)
		}
		b, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		r := newMoments(m, fdCount)
		if err := r.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		if r.f.lastTS != a.f.lastTS {
			t.Errorf("ts %v: restored %+v, want %+v", ts, r.f.lastTS, a.f.lastTS)
		}
		r.f.see(-7)
		if want := math.Max(-7, a.f.last); a.f.set && r.f.last != want || !a.f.set && r.f.last != -7 {
			t.Errorf("ts %v: after −7 the restored group reads %v", ts, r.f.last)
		}
	}
}
