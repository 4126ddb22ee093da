package udaf

import (
	"encoding"
	"fmt"
	"math"
	"strings"

	"forwarddecay/agg"
	"forwarddecay/gsql"
	"forwarddecay/internal/codec"
	"forwarddecay/sample"
)

// Epoch-aware UDAFs. The base UDAFs (sshh, prisamp, …) take caller-computed
// weights, so the runtime cannot rebase their state when the landmark moves —
// and under exponential decay their linear-domain weights overflow on
// week-long streams. The fd* family instead takes raw timestamps and wraps
// the agg/sample forward-decay aggregates, which carry their decay model
// internally: they implement gsql.LandmarkShifter (the epoch supervisor can
// roll them exactly) and gsql.LandmarkReporter (restore can cross-check their
// frame against a checkpoint's stamped landmark).
//
// Registered only when Config.Decay is set:
//
//	fdcount(ts)        decayed count
//	fdsum(ts, v)       decayed sum
//	fdavg(ts, v)       decayed average (time-independent ratio)
//	fdvar(ts, v)       decayed variance (time-independent ratio)
//	fdmin(ts, v)       decayed minimum
//	fdmax(ts, v)       decayed maximum
//	fdhh(key, ts)      decayed heavy hitters (SpaceSaving under the model)
//	fdpct(v, ts)       decayed quantile (q-digest under the model)
//	fdcard(key, ts)    decayed count-distinct (exact, per-key max weight)
//	fdprisamp(item, ts)  forward priority sample under the model
//	fdwrsamp(item, ts)   forward weighted reservoir under the model
//
// Time-dependent finals (count, sum, min, max, hh, card) are evaluated at the
// group's maximum observed timestamp, which merges and survives checkpoints
// alongside the aggregate state.

// epochSpecs builds the fd* aggregate specs for a resolved config.
func epochSpecs(cfg Config) []gsql.AggSpec {
	m := cfg.Decay
	return []gsql.AggSpec{
		{Name: "fdcount", MinArgs: 1, MaxArgs: 1, Mergeable: true,
			New: func() gsql.Aggregator { return &fdcountAgg{s: agg.NewCounter(m)} }},
		{Name: "fdsum", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator { return &fdsumAgg{s: agg.NewSum(m), kind: fdKindSum} }},
		{Name: "fdavg", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator { return &fdsumAgg{s: agg.NewSum(m), kind: fdKindAvg} }},
		{Name: "fdvar", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator { return &fdsumAgg{s: agg.NewSum(m), kind: fdKindVar} }},
		{Name: "fdmin", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator { return &fdminAgg{s: agg.NewMin(m)} }},
		{Name: "fdmax", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator { return &fdmaxAgg{s: agg.NewMax(m)} }},
		{Name: "fdhh", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator {
				return &fdhhAgg{s: agg.NewHeavyHitters(m, cfg.Epsilon), phi: cfg.Phi}
			}},
		{Name: "fdpct", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator {
				return &fdpctAgg{s: agg.NewQuantiles(m, cfg.QuantileU, cfg.Epsilon), phi: cfg.QuantilePhi}
			}},
		{Name: "fdcard", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator { return &fdcardAgg{s: agg.NewDistinctExact(m)} }},
		{Name: "fdprisamp", MinArgs: 2, MaxArgs: 2,
			New: func() gsql.Aggregator {
				return &fdprisampAgg{s: sample.NewForwardPriority[gsql.Value](m, cfg.SampleSize, cfg.Seed)}
			}},
		{Name: "fdwrsamp", MinArgs: 2, MaxArgs: 2,
			New: func() gsql.Aggregator {
				return &fdwrsampAgg{s: sample.NewForwardWRS[gsql.Value](m, cfg.SampleSize, cfg.Seed)}
			}},
	}
}

// lastTS tracks a group's maximum observed timestamp — the query time of
// time-dependent finals. It merges with other partials and rides checkpoint
// encodings as an 8-byte suffix after the wrapped aggregate's bytes.
type lastTS struct{ last float64 }

func (l *lastTS) see(ts float64) {
	if ts > l.last {
		l.last = ts
	}
}

func (l *lastTS) fold(o *lastTS) {
	if o.last > l.last {
		l.last = o.last
	}
}

// appendLast appends the wrapped aggregate's encoding plus the timestamp
// suffix.
func (l *lastTS) appendLast(b []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return codec.AppendF64(b, l.last), nil
}

// unmarshalLast decodes the wrapped aggregate's encoding into u, then the
// timestamp suffix.
func (l *lastTS) unmarshalLast(name string, u encoding.BinaryUnmarshaler, b []byte) error {
	d := codec.NewDec(b, "udaf: "+name)
	d.Unmarshal(u, d.Bytes(uint64(max(len(b)-8, 0))))
	last := d.F64()
	if math.IsNaN(last) || math.IsInf(last, 0) {
		d.Failf("non-finite timestamp in encoding")
	}
	if err := d.Done(); err != nil {
		return err
	}
	l.last = last
	return nil
}

// mergeAs asserts a merge partner's type, with the uniform error message.
func mergeAs[T gsql.Aggregator](name string, o gsql.Aggregator) (T, error) {
	oa, ok := o.(T)
	if !ok {
		return oa, fmt.Errorf("udaf: %s: cannot merge %T", name, o)
	}
	return oa, nil
}

// --- fdcount ------------------------------------------------------------

type fdcountAgg struct {
	s *agg.Counter
	lastTS
}

func (a *fdcountAgg) Step(args []gsql.Value) error {
	ts := args[0].AsFloat()
	a.s.Observe(ts)
	a.see(ts)
	return nil
}

// StepBatch folds a run of tuples, compressing equal-timestamp stretches
// into Counter.ObserveRun so the decay weight and its exponential are
// computed once per distinct timestamp. Bit-for-bit identical to n
// sequential Steps: the accumulation inside ObserveRun stays sequential,
// and see() is monotone so per-run application matches per-row.
func (a *fdcountAgg) StepBatch(args []gsql.Value, n, stride int) error {
	for i := 0; i < n; {
		ts := args[i*stride].AsFloat()
		j := i + 1
		for j < n && args[j*stride].AsFloat() == ts {
			j++
		}
		a.s.ObserveRun(ts, j-i)
		a.see(ts)
		i = j
	}
	return nil
}

func (a *fdcountAgg) Final() gsql.Value { return gsql.Float(a.s.Value(a.last)) }

func (a *fdcountAgg) Merge(o gsql.Aggregator) error {
	oa, err := mergeAs[*fdcountAgg]("fdcount", o)
	if err != nil {
		return err
	}
	a.fold(&oa.lastTS)
	return a.s.Merge(oa.s)
}

func (a *fdcountAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdcountAgg) Landmark() float64                { return a.s.Model().Landmark }

func (a *fdcountAgg) MarshalBinary() ([]byte, error) { return a.appendLast(a.s.MarshalBinary()) }
func (a *fdcountAgg) UnmarshalBinary(b []byte) error { return a.unmarshalLast("fdcount", a.s, b) }

// --- fdsum / fdavg / fdvar ----------------------------------------------

type fdKind uint8

const (
	fdKindSum fdKind = iota
	fdKindAvg
	fdKindVar
)

type fdsumAgg struct {
	s    *agg.Sum
	kind fdKind
	lastTS
}

func (a *fdsumAgg) Step(args []gsql.Value) error {
	ts := args[0].AsFloat()
	a.s.Observe(ts, args[1].AsFloat())
	a.see(ts)
	return nil
}

// StepBatch folds a run of (ts, v) pairs. The values differ row to row so
// nothing collapses, but ObserveMemo's one-slot weight memo makes the
// per-row LogStaticWeight lookup free across equal-timestamp stretches.
func (a *fdsumAgg) StepBatch(args []gsql.Value, n, stride int) error {
	for i := 0; i < n; i++ {
		ts := args[i*stride].AsFloat()
		a.s.ObserveMemo(ts, args[i*stride+1].AsFloat())
		a.see(ts)
	}
	return nil
}

func (a *fdsumAgg) Final() gsql.Value {
	switch a.kind {
	case fdKindAvg:
		return gsql.Float(a.s.Mean())
	case fdKindVar:
		return gsql.Float(a.s.Variance())
	default:
		return gsql.Float(a.s.Value(a.last))
	}
}

func (a *fdsumAgg) Merge(o gsql.Aggregator) error {
	oa, err := mergeAs[*fdsumAgg]("fdsum", o)
	if err != nil {
		return err
	}
	a.fold(&oa.lastTS)
	return a.s.Merge(oa.s)
}

func (a *fdsumAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdsumAgg) Landmark() float64                { return a.s.Model().Landmark }

func (a *fdsumAgg) MarshalBinary() ([]byte, error) { return a.appendLast(a.s.MarshalBinary()) }
func (a *fdsumAgg) UnmarshalBinary(b []byte) error { return a.unmarshalLast("fdsum", a.s, b) }

// --- fdmin / fdmax ------------------------------------------------------

type fdminAgg struct {
	s *agg.Min
	lastTS
}

func (a *fdminAgg) Step(args []gsql.Value) error {
	ts := args[0].AsFloat()
	a.s.Observe(ts, args[1].AsFloat())
	a.see(ts)
	return nil
}

func (a *fdminAgg) Final() gsql.Value { return gsql.Float(a.s.Value(a.last)) }

func (a *fdminAgg) Merge(o gsql.Aggregator) error {
	oa, err := mergeAs[*fdminAgg]("fdmin", o)
	if err != nil {
		return err
	}
	a.fold(&oa.lastTS)
	return a.s.Merge(oa.s)
}

func (a *fdminAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdminAgg) Landmark() float64                { return a.s.Model().Landmark }

func (a *fdminAgg) MarshalBinary() ([]byte, error) { return a.appendLast(a.s.MarshalBinary()) }
func (a *fdminAgg) UnmarshalBinary(b []byte) error { return a.unmarshalLast("fdmin", a.s, b) }

type fdmaxAgg struct {
	s *agg.Max
	lastTS
}

func (a *fdmaxAgg) Step(args []gsql.Value) error {
	ts := args[0].AsFloat()
	a.s.Observe(ts, args[1].AsFloat())
	a.see(ts)
	return nil
}

func (a *fdmaxAgg) Final() gsql.Value { return gsql.Float(a.s.Value(a.last)) }

func (a *fdmaxAgg) Merge(o gsql.Aggregator) error {
	oa, err := mergeAs[*fdmaxAgg]("fdmax", o)
	if err != nil {
		return err
	}
	a.fold(&oa.lastTS)
	return a.s.Merge(oa.s)
}

func (a *fdmaxAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdmaxAgg) Landmark() float64                { return a.s.Model().Landmark }

func (a *fdmaxAgg) MarshalBinary() ([]byte, error) { return a.appendLast(a.s.MarshalBinary()) }
func (a *fdmaxAgg) UnmarshalBinary(b []byte) error { return a.unmarshalLast("fdmax", a.s, b) }

// --- fdhh ---------------------------------------------------------------

type fdhhAgg struct {
	s   *agg.HeavyHitters
	phi float64
	lastTS
}

func (a *fdhhAgg) Step(args []gsql.Value) error {
	ts := args[1].AsFloat()
	a.s.Observe(uint64(args[0].AsInt()), ts)
	a.see(ts)
	return nil
}

func (a *fdhhAgg) Final() gsql.Value { return renderAggHH(a.s.Query(a.last, a.phi)) }

func (a *fdhhAgg) Merge(o gsql.Aggregator) error {
	oa, err := mergeAs[*fdhhAgg]("fdhh", o)
	if err != nil {
		return err
	}
	a.fold(&oa.lastTS)
	return a.s.Merge(oa.s)
}

func (a *fdhhAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdhhAgg) Landmark() float64                { return a.s.Model().Landmark }

func (a *fdhhAgg) MarshalBinary() ([]byte, error) { return a.appendLast(a.s.MarshalBinary()) }
func (a *fdhhAgg) UnmarshalBinary(b []byte) error { return a.unmarshalLast("fdhh", a.s, b) }

// renderAggHH renders decayed heavy hitters like renderHH does for the raw
// sketches: "key:count" in decreasing count order.
func renderAggHH(items []agg.Item) gsql.Value {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf("%d:%.6g", it.Key, it.Count)
	}
	return gsql.Str(strings.Join(parts, ","))
}

// --- fdpct --------------------------------------------------------------

type fdpctAgg struct {
	s   *agg.Quantiles
	phi float64
}

func (a *fdpctAgg) Step(args []gsql.Value) error {
	a.s.Observe(uint64(args[0].AsInt()), args[1].AsFloat())
	return nil
}

func (a *fdpctAgg) Final() gsql.Value { return gsql.Int(int64(a.s.Quantile(a.phi))) }

func (a *fdpctAgg) Merge(o gsql.Aggregator) error {
	oa, err := mergeAs[*fdpctAgg]("fdpct", o)
	if err != nil {
		return err
	}
	return a.s.Merge(oa.s)
}

func (a *fdpctAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdpctAgg) Landmark() float64                { return a.s.Model().Landmark }

func (a *fdpctAgg) MarshalBinary() ([]byte, error) { return a.s.MarshalBinary() }
func (a *fdpctAgg) UnmarshalBinary(b []byte) error { return a.s.UnmarshalBinary(b) }

// --- fdcard -------------------------------------------------------------

type fdcardAgg struct {
	s *agg.DistinctExact
	lastTS
}

func (a *fdcardAgg) Step(args []gsql.Value) error {
	ts := args[1].AsFloat()
	a.s.Observe(uint64(args[0].AsInt()), ts)
	a.see(ts)
	return nil
}

func (a *fdcardAgg) Final() gsql.Value { return gsql.Float(a.s.Value(a.last)) }

func (a *fdcardAgg) Merge(o gsql.Aggregator) error {
	oa, err := mergeAs[*fdcardAgg]("fdcard", o)
	if err != nil {
		return err
	}
	a.fold(&oa.lastTS)
	return a.s.Merge(oa.s)
}

func (a *fdcardAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdcardAgg) Landmark() float64                { return a.s.Model().Landmark }

func (a *fdcardAgg) MarshalBinary() ([]byte, error) { return a.appendLast(a.s.MarshalBinary()) }
func (a *fdcardAgg) UnmarshalBinary(b []byte) error { return a.unmarshalLast("fdcard", a.s, b) }

// --- samplers -----------------------------------------------------------

type fdprisampAgg struct {
	s *sample.ForwardPriority[gsql.Value]
	lastTS
}

func (a *fdprisampAgg) Step(args []gsql.Value) error {
	ts := args[1].AsFloat()
	a.s.Observe(args[0], ts)
	a.see(ts)
	return nil
}

func (a *fdprisampAgg) Final() gsql.Value {
	ws := a.s.Sample(a.last)
	items := make([]gsql.Value, len(ws))
	for i, w := range ws {
		items[i] = w.Item
	}
	return renderSample(items)
}

func (a *fdprisampAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdprisampAgg) Landmark() float64                { return a.s.Model().Landmark }

type fdwrsampAgg struct {
	s *sample.ForwardWRS[gsql.Value]
}

func (a *fdwrsampAgg) Step(args []gsql.Value) error {
	a.s.Observe(args[0], args[1].AsFloat())
	return nil
}

func (a *fdwrsampAgg) Final() gsql.Value { return renderSample(a.s.Sample()) }

func (a *fdwrsampAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdwrsampAgg) Landmark() float64                { return a.s.Model().Landmark }
