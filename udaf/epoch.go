package udaf

import (
	"encoding"
	"fmt"
	"math"

	"forwarddecay/agg"
	"forwarddecay/decay"
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
// fdcount, fdsum, fdavg and fdvar over the same expressions read one
// decayed-moments frame (agg.Moments). Time-dependent finals (count, sum,
// min, max, hh, card) are evaluated at the group's maximum observed
// timestamp, which merges and survives checkpoints alongside the state.

// epochSpecs builds the fd* aggregate specs for a resolved config.
func epochSpecs(cfg Config) []gsql.AggSpec {
	m := cfg.Decay
	return []gsql.AggSpec{
		{Name: "fdcount", MinArgs: 1, MaxArgs: 1, Mergeable: true, Shares: true,
			New: func() gsql.Aggregator { return newMoments(m, fdCount) }},
		{Name: "fdsum", MinArgs: 2, MaxArgs: 2, Mergeable: true, Shares: true,
			New: func() gsql.Aggregator { return newMoments(m, fdSum) }},
		{Name: "fdavg", MinArgs: 2, MaxArgs: 2, Mergeable: true, Shares: true,
			New: func() gsql.Aggregator { return newMoments(m, fdAvg) }},
		{Name: "fdvar", MinArgs: 2, MaxArgs: 2, Mergeable: true, Shares: true,
			New: func() gsql.Aggregator { return newMoments(m, fdVar) }},
		{Name: "fdmin", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator { return &fdextAgg[*agg.Min]{fdBase[*agg.Min]{s: agg.NewMin(m), name: "fdmin"}} }},
		{Name: "fdmax", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator { return &fdextAgg[*agg.Max]{fdBase[*agg.Max]{s: agg.NewMax(m), name: "fdmax"}} }},
		{Name: "fdhh", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator {
				return &fdhhAgg{fdBase[*agg.HeavyHitters]{s: agg.NewHeavyHitters(m, cfg.Epsilon), name: "fdhh"}, cfg.Phi}
			}},
		{Name: "fdpct", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator {
				return &fdpctAgg{s: agg.NewQuantiles(m, cfg.QuantileU, cfg.Epsilon), phi: cfg.QuantilePhi}
			}},
		{Name: "fdcard", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator {
				return &fdcardAgg{fdBase[*agg.DistinctExact]{s: agg.NewDistinctExact(m), name: "fdcard"}}
			}},
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
// time-dependent finals. Only finite timestamps count, and the first sets
// it, so a group whose timestamps are all negative finalises at its latest
// one; until then it reads 0. It merges with other partials and rides checkpoint encodings
// as an 8-byte suffix after the wrapped aggregate's bytes, −0 while unset.
type lastTS struct {
	last float64
	set  bool
}

func (l *lastTS) see(ts float64) {
	if agg.IsFinite(ts) && (ts > l.last || !l.set) {
		l.last, l.set = ts+0, true // +0 turns −0 into 0: −0 encodes "unset"
	}
}

func (l *lastTS) fold(o *lastTS) {
	if o.set {
		l.see(o.last)
	}
}

// appendLast appends the wrapped aggregate's encoding plus the timestamp
// suffix.
func (l *lastTS) appendLast(b []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if !l.set {
		return codec.AppendF64(b, math.Copysign(0, -1)), nil
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
	l.last, l.set = last+0, last != 0 || !math.Signbit(last)
	return nil
}

// --- fdcount / fdsum / fdavg / fdvar ---------------------------------------

type fdKind uint8

const (
	fdCount fdKind = iota
	fdSum
	fdAvg
	fdVar
)

var fdNames = [...]string{"fdcount", "fdsum", "fdavg", "fdvar"}

// momentsAgg is fdcount (the frame's Counter) or fdsum, fdavg or fdvar (its
// Sum). Linked onto the frame of a value reader over the same expressions,
// it leaves folding, merging and shifting to that frame's owner, and still
// encodes its own view byte for byte as an unlinked slot.
type momentsAgg struct {
	own   momentsFrame
	f     *momentsFrame
	kind  fdKind
	owner bool
}

type momentsFrame struct {
	m agg.Moments
	lastTS
}

func newMoments(m decay.Forward, kind fdKind) *momentsAgg {
	a := &momentsAgg{kind: kind, owner: true}
	if a.f = &a.own; kind == fdCount {
		a.own.m.Count = agg.NewCounter(m)
	} else {
		a.own.m.Sum = agg.NewSum(m)
	}
	return a
}

func (a *momentsAgg) Share(o gsql.Aggregator, args, oargs []string) bool {
	lead, ok := o.(*momentsAgg)
	if !ok || lead.kind == fdCount || args[0] != oargs[0] {
		return false
	}
	switch {
	case a.kind != fdCount:
		if args[1] != oargs[1] {
			return false
		}
	case lead.f.m.Count != nil:
		return false
	default:
		lead.f.m.Count = a.own.m.Count
	}
	a.f, a.owner = lead.f, false
	return true
}

func (a *momentsAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }

// StepCols folds the rows into the frame, weighing each distinct timestamp
// once.
func (a *momentsAgg) StepCols(c *gsql.Cols) error {
	if !a.owner {
		return nil
	}
	f, model := a.f, a.f.m.Model()
	prev, lw, v := math.NaN(), 0.0, 0.0
	for i := range c.Len() {
		ts := c.Float(0, i)
		if ts != prev {
			prev, lw = ts, model.LogStaticWeight(ts)
		}
		if a.kind != fdCount {
			v = c.Float(1, i)
		}
		f.m.Observe(ts, lw, v)
		f.see(ts)
	}
	return nil
}

func (a *momentsAgg) Final() gsql.Value {
	switch s := a.f.m.Sum; a.kind {
	case fdCount:
		return gsql.Float(a.f.m.Count.Value(a.f.last))
	case fdAvg:
		return gsql.Float(s.Mean())
	case fdVar:
		return gsql.Float(s.Variance())
	default:
		return gsql.Float(s.Value(a.f.last))
	}
}

func (a *momentsAgg) Merge(o gsql.Aggregator) error {
	oa, ok := o.(*momentsAgg)
	if !ok {
		return fmt.Errorf("udaf: %s: cannot merge %T", fdNames[a.kind], o)
	} else if !a.owner {
		return nil
	}
	a.f.fold(&oa.f.lastTS)
	return a.f.m.Merge(&oa.f.m)
}

func (a *momentsAgg) ShiftLandmark(newL float64) error {
	if !a.owner {
		return nil
	}
	return a.f.m.ShiftLandmark(newL)
}

// Landmark reports the slot's own view: restore checks both halves of a frame.
func (a *momentsAgg) Landmark() float64 {
	if a.kind == fdCount {
		return a.f.m.Count.Model().Landmark
	}
	return a.f.m.Sum.Model().Landmark
}

func (a *momentsAgg) MarshalBinary() ([]byte, error) {
	if a.kind == fdCount {
		return a.f.appendLast(a.f.m.Count.MarshalBinary())
	}
	return a.f.appendLast(a.f.m.Sum.MarshalBinary())
}

func (a *momentsAgg) UnmarshalBinary(b []byte) error {
	var u encoding.BinaryUnmarshaler = a.f.m.Sum
	if a.kind == fdCount {
		u = a.f.m.Count
	}
	return a.f.unmarshalLast(fdNames[a.kind], u, b)
}

// --- fdmin / fdmax / fdhh / fdcard -----------------------------------------

// summary is the agg aggregate an fdmin, fdmax, fdhh or fdcard slot wraps.
type summary[T any] interface {
	Merge(o T) error
	ShiftLandmark(newL float64) error
	Model() decay.Forward
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// fdBase merges, shifts and encodes the summary of an fd* slot that reads
// its final at the group's latest timestamp.
type fdBase[T summary[T]] struct {
	s    T
	name string
	lastTS
}

func (a *fdBase[T]) base() *fdBase[T] { return a }

func (a *fdBase[T]) Merge(o gsql.Aggregator) error {
	ob, ok := o.(interface{ base() *fdBase[T] })
	if !ok {
		return fmt.Errorf("udaf: %s: cannot merge %T", a.name, o)
	}
	a.fold(&ob.base().lastTS)
	return a.s.Merge(ob.base().s)
}

func (a *fdBase[T]) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdBase[T]) Landmark() float64                { return a.s.Model().Landmark }

func (a *fdBase[T]) MarshalBinary() ([]byte, error) { return a.appendLast(a.s.MarshalBinary()) }
func (a *fdBase[T]) UnmarshalBinary(b []byte) error { return a.unmarshalLast(a.name, a.s, b) }

// fdextAgg is fdmin or fdmax.
type fdextAgg[T interface {
	summary[T]
	Observe(ti, v float64)
	Value(t float64) float64
}] struct{ fdBase[T] }

func (a *fdextAgg[T]) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *fdextAgg[T]) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { ts := c.Float(0, i); a.s.Observe(ts, c.Float(1, i)); a.see(ts) })
}

func (a *fdextAgg[T]) Final() gsql.Value { return gsql.Float(a.s.Value(a.last)) }

type fdhhAgg struct {
	fdBase[*agg.HeavyHitters]
	phi float64
}

func (a *fdhhAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *fdhhAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { ts := c.Float(1, i); a.s.Observe(uint64(c.Int(0, i)), ts); a.see(ts) })
}

func (a *fdhhAgg) Final() gsql.Value { return renderHH(a.s.Query(a.last, a.phi)) }

type fdcardAgg struct{ fdBase[*agg.DistinctExact] }

func (a *fdcardAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *fdcardAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { ts := c.Float(1, i); a.s.Observe(uint64(c.Int(0, i)), ts); a.see(ts) })
}

func (a *fdcardAgg) Final() gsql.Value { return gsql.Float(a.s.Value(a.last)) }

// --- fdpct --------------------------------------------------------------

type fdpctAgg struct {
	s   *agg.Quantiles
	phi float64
}

func (a *fdpctAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *fdpctAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) {
		if agg.IsFinite(c.Float(0, i)) {
			a.s.Observe(uint64(c.Int(0, i)), c.Float(1, i))
		}
	})
}

func (a *fdpctAgg) Final() gsql.Value { return gsql.Int(int64(a.s.Quantile(a.phi))) }

func (a *fdpctAgg) Merge(o gsql.Aggregator) error {
	oa, ok := o.(*fdpctAgg)
	if !ok {
		return fmt.Errorf("udaf: fdpct: cannot merge %T", o)
	}
	return a.s.Merge(oa.s)
}

func (a *fdpctAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdpctAgg) Landmark() float64                { return a.s.Model().Landmark }

func (a *fdpctAgg) MarshalBinary() ([]byte, error) { return a.s.MarshalBinary() }
func (a *fdpctAgg) UnmarshalBinary(b []byte) error { return a.s.UnmarshalBinary(b) }

// --- samplers -----------------------------------------------------------

type fdprisampAgg struct {
	s *sample.ForwardPriority[gsql.Value]
	lastTS
}

func (a *fdprisampAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *fdprisampAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { ts := c.Float(1, i); a.s.Observe(c.Value(0, i), ts); a.see(ts) })
}

func (a *fdprisampAgg) Final() gsql.Value { return renderWeighted(a.s.Sample(a.last)) }

func (a *fdprisampAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdprisampAgg) Landmark() float64                { return a.s.Model().Landmark }

type fdwrsampAgg struct {
	s *sample.ForwardWRS[gsql.Value]
}

func (a *fdwrsampAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *fdwrsampAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { a.s.Observe(c.Value(0, i), c.Float(1, i)) })
}

func (a *fdwrsampAgg) Final() gsql.Value { return renderSample(a.s.Sample()) }

func (a *fdwrsampAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *fdwrsampAgg) Landmark() float64                { return a.s.Model().Landmark }
