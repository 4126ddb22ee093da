package gsql

import (
	"fmt"
	"math"
)

// Aggregator accumulates values for one group. Implementations of the
// builtin aggregates and of user-defined aggregate functions (UDAFs) both
// satisfy this interface.
type Aggregator interface {
	// Step folds in one tuple's argument values (empty for count(*)).
	Step(args []Value) error
	// Final produces the aggregate result.
	Final() Value
}

// BatchStepper is implemented by aggregators that can fold a run of tuples
// in one call. StepBatch(args, n, stride) must be bit-for-bit equivalent to
// n sequential Step(args[i*stride : i*stride+stride]) calls (stride 0 means
// every row steps with a nil argument slice, as count(*) does). The batch
// executor probes its group once per key run and hands the whole run here,
// amortizing the interface dispatch and letting decayed implementations
// memoize the per-timestamp decay weight across the run.
//
// If a mid-run Step would error, StepBatch must return that same error; the
// aggregator's state after the error may reflect more or fewer of the run's
// rows than the scalar sequence would. The error surfaces identically,
// which is the contract, and the run fails as a unit: a standalone run stops
// there, and a catalog member is charged once and resumes after the run.
type BatchStepper interface {
	Aggregator
	StepBatch(args []Value, n, stride int) error
}

// stepBatch folds a run through StepBatch when available, or a scalar loop.
func stepBatch(a Aggregator, args []Value, n, stride int) error {
	if bs, ok := a.(BatchStepper); ok {
		return bs.StepBatch(args, n, stride)
	}
	if stride == 0 {
		for i := 0; i < n; i++ {
			if err := a.Step(nil); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := a.Step(args[i*stride : i*stride+stride]); err != nil {
			return err
		}
	}
	return nil
}

// stepCols folds the rows of a key run into a builtin aggregate straight from
// its argument's kernel column (args is empty only for count(*)), reporting
// false for a UDAF, an argument that is not int or float, or a min/max
// holding a string, all of which take stepBatch (a builtin through its Step
// loop). Each loop is the builtin's Step over the row's value, bit for bit;
// rows is never empty.
func stepCols(a Aggregator, ctx *vctx, args []*vecNode, rows []int32) bool {
	var n *vecNode
	if len(args) == 1 {
		n = args[0]
		if n.t != TInt && n.t != TFloat {
			return false
		}
	}
	switch a := a.(type) {
	case *countAgg:
		a.n += int64(len(rows)) // an int or float argument is never NULL
	case *sumAgg:
		a.seen = true
		if n.t == TInt {
			for _, r := range rows {
				if x := int64(ctx.wordAt(n, int(r))); a.isFloat {
					a.f += float64(x)
				} else {
					a.i += x
				}
			}
			break
		}
		if !a.isFloat {
			a.f, a.isFloat = float64(a.i), true
		}
		for _, r := range rows {
			a.f += math.Float64frombits(ctx.wordAt(n, int(r)))
		}
	case *avgAgg:
		for _, r := range rows {
			a.sum += wordValue(n.t, ctx.wordAt(n, int(r))).AsFloat()
		}
		a.n += int64(len(rows))
	case *minmaxAgg:
		if a.seen && a.best.T == TString {
			return false
		}
		for _, r := range rows {
			a.stepNum(wordValue(n.t, ctx.wordAt(n, int(r))))
		}
	default:
		return false
	}
	return true
}

// Merger is implemented by aggregators that can combine partial states.
// Only queries whose every aggregate is a Merger run under the two-level
// (low/high) split; others run at the high level only, exactly as the
// paper's UDAFs do.
type Merger interface {
	Aggregator
	// Merge folds another partial aggregate of the same kind into this one.
	Merge(other Aggregator) error
}

// Resetter is implemented by aggregators that can return to the state their
// factory produced them in. A run recycles the aggregators of a closed bucket
// into the groups of the next one through it; an aggregator without it is
// simply replaced by a fresh AggSpec.New() — recycling is an optimization the
// run discovers, never a requirement. All builtin aggregates implement it.
// A Resetter that is also a Merger must not keep references into the
// aggregator it merged: that one is reset and reused next.
type Resetter interface {
	Aggregator
	// Reset discards every folded value; the aggregator must afterwards be
	// indistinguishable from a newly constructed one.
	Reset()
}

// AggSpec describes an aggregate function: its name, arity and factory.
// Mergeable must be set only if the factory's aggregators implement Merger.
type AggSpec struct {
	// Name is the function name used in queries (case-insensitive).
	Name string
	// MinArgs and MaxArgs bound the argument count (count(*) passes 0).
	MinArgs, MaxArgs int
	// New creates an empty aggregator for one group.
	New func() Aggregator
	// Mergeable enables the two-level split for this aggregate.
	Mergeable bool
}

// mergeAggs folds the src partial aggregates into dst, slot by slot. Both
// sides must come from the same plan; it is the HFTA-side combine step shared
// by the two-level eviction path and the sharded parallel runtime.
func mergeAggs(dst, src []Aggregator) error {
	for i, a := range dst {
		m, ok := a.(Merger)
		if !ok {
			return fmt.Errorf("gsql: aggregate %T does not support merging", a)
		}
		if err := m.Merge(src[i]); err != nil {
			return err
		}
	}
	return nil
}

// builtinAggs returns the specs of the builtin aggregates.
func builtinAggs() map[string]AggSpec {
	mk := func(name string, min, max int, f func() Aggregator) AggSpec {
		return AggSpec{Name: name, MinArgs: min, MaxArgs: max, New: f, Mergeable: true}
	}
	return map[string]AggSpec{
		"count": mk("count", 0, 1, func() Aggregator { return &countAgg{} }),
		"sum":   mk("sum", 1, 1, func() Aggregator { return &sumAgg{} }),
		"avg":   mk("avg", 1, 1, func() Aggregator { return &avgAgg{} }),
		"min":   mk("min", 1, 1, func() Aggregator { return &minmaxAgg{min: true} }),
		"max":   mk("max", 1, 1, func() Aggregator { return &minmaxAgg{} }),
	}
}

// countAgg implements count(*) and count(expr) (counting non-NULL values).
type countAgg struct{ n int64 }

func (c *countAgg) Step(args []Value) error {
	if len(args) == 0 || !args[0].IsNull() {
		c.n++
	}
	return nil
}

func (c *countAgg) Final() Value { return Int(c.n) }

func (c *countAgg) Reset() { c.n = 0 }

func (c *countAgg) Merge(o Aggregator) error {
	oc, ok := o.(*countAgg)
	if !ok {
		return fmt.Errorf("gsql: count: cannot merge %T", o)
	}
	c.n += oc.n
	return nil
}

// sumAgg implements sum(expr), preserving integer typing for all-integer
// inputs (GS/C semantics).
type sumAgg struct {
	i       int64
	f       float64
	isFloat bool
	seen    bool
}

func (s *sumAgg) Step(args []Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	s.seen = true
	if v.T == TFloat {
		if !s.isFloat {
			s.f = float64(s.i)
			s.isFloat = true
		}
		s.f += v.F
		return nil
	}
	if s.isFloat {
		s.f += float64(v.AsInt())
	} else {
		s.i += v.AsInt()
	}
	return nil
}

func (s *sumAgg) Reset() { *s = sumAgg{} }

func (s *sumAgg) Final() Value {
	if !s.seen {
		return Null
	}
	if s.isFloat {
		return Float(s.f)
	}
	return Int(s.i)
}

func (s *sumAgg) Merge(o Aggregator) error {
	os, ok := o.(*sumAgg)
	if !ok {
		return fmt.Errorf("gsql: sum: cannot merge %T", o)
	}
	if !os.seen {
		return nil
	}
	if os.isFloat {
		s.Step([]Value{Float(os.f)})
	} else {
		s.Step([]Value{Int(os.i)})
	}
	return nil
}

// avgAgg implements avg(expr) as a float mean.
type avgAgg struct {
	sum float64
	n   int64
}

func (a *avgAgg) Step(args []Value) error {
	if args[0].IsNull() {
		return nil
	}
	a.sum += args[0].AsFloat()
	a.n++
	return nil
}

func (a *avgAgg) Reset() { *a = avgAgg{} }

func (a *avgAgg) Final() Value {
	if a.n == 0 {
		return Null
	}
	return Float(a.sum / float64(a.n))
}

func (a *avgAgg) Merge(o Aggregator) error {
	oa, ok := o.(*avgAgg)
	if !ok {
		return fmt.Errorf("gsql: avg: cannot merge %T", o)
	}
	a.sum += oa.sum
	a.n += oa.n
	return nil
}

// minmaxAgg implements min(expr) and max(expr) over numeric or string
// values.
type minmaxAgg struct {
	min  bool
	best Value
	seen bool
}

func (m *minmaxAgg) Step(args []Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	if !m.seen {
		m.best, m.seen = v, true
		return nil
	}
	c, err := compare(v, m.best)
	if err != nil {
		return err
	}
	if m.min && c < 0 || !m.min && c > 0 {
		m.best = v
	}
	return nil
}

// stepNum is Step for a numeric v while best is not a string: the compare
// cannot fail, and mixed numerics compare as floats.
func (m *minmaxAgg) stepNum(v Value) {
	if !m.seen {
		m.best, m.seen = v, true
		return
	}
	if x, y := v.AsFloat(), m.best.AsFloat(); m.min && x < y || !m.min && x > y {
		m.best = v
	}
}

func (m *minmaxAgg) Reset() { *m = minmaxAgg{min: m.min} }

func (m *minmaxAgg) Final() Value {
	if !m.seen {
		return Null
	}
	return m.best
}

func (m *minmaxAgg) Merge(o Aggregator) error {
	om, ok := o.(*minmaxAgg)
	if !ok {
		return fmt.Errorf("gsql: min/max: cannot merge %T", o)
	}
	if !om.seen {
		return nil
	}
	return m.Step([]Value{om.best})
}

// validateSpec checks an AggSpec before registration.
func validateSpec(s AggSpec) error {
	if s.Name == "" || s.New == nil {
		return fmt.Errorf("gsql: aggregate spec needs a name and factory")
	}
	if s.MinArgs < 0 || s.MaxArgs < s.MinArgs {
		return fmt.Errorf("gsql: aggregate %s: bad arity bounds [%d,%d]", s.Name, s.MinArgs, s.MaxArgs)
	}
	if s.Mergeable {
		if _, ok := s.New().(Merger); !ok {
			return fmt.Errorf("gsql: aggregate %s declared mergeable but does not implement Merger", s.Name)
		}
	}
	return nil
}
