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

// ColStepper is implemented by aggregators that fold a key run straight from
// its argument columns: one dispatch per run, no numeric argument boxed.
// StepCols(c) must be bit-for-bit equivalent to c.Len() sequential Step
// calls over the run's rows in order.
//
// If a mid-run Step would error, StepCols must return that same error; the
// aggregator's state after the error may reflect more or fewer of the run's
// rows than the scalar sequence would. The error surfaces identically,
// which is the contract, and the run fails as a unit: a standalone run stops
// there, and a catalog member is charged once and resumes after the run.
type ColStepper interface {
	Aggregator
	StepCols(c *Cols) error
}

// Cols is an aggregator's view of its arguments over the rows of one key
// run, read from the kernel columns through wordAt, or over the single row
// of RowCols. Float(a, i) and Int(a, i) are argument a of row i as
// Value.AsFloat and AsInt read it, bit for bit; Value(a, i) is the Value,
// boxed only for an argument that is not statically int, bool or float.
type Cols struct {
	ctx  *vctx
	args []*vecNode
	rows []int32
	vals []Value // RowCols' row
}

// RowCols is the Cols of one row of Step arguments (a ColStepper's Step).
func RowCols(args []Value) Cols { return Cols{vals: args, rows: oneRow} }

var oneRow = []int32{0}

// Len is the number of rows (never zero).
func (c *Cols) Len() int { return len(c.rows) }

// numeric reports whether every argument is statically int, bool or float.
func (c *Cols) numeric() bool {
	for _, n := range c.args {
		if !staticNumeric(n.t) {
			return false
		}
	}
	return c.ctx != nil
}

// Float returns argument a of row i as Value.AsFloat.
func (c *Cols) Float(a, i int) float64 {
	if c.ctx != nil {
		switch n := c.args[a]; n.t {
		case TFloat:
			return math.Float64frombits(c.ctx.wordAt(n, int(c.rows[i])))
		case TInt, TBool:
			return float64(int64(c.ctx.wordAt(n, int(c.rows[i]))))
		}
	}
	return c.Value(a, i).AsFloat()
}

// Int returns argument a of row i as Value.AsInt.
func (c *Cols) Int(a, i int) int64 {
	if c.ctx != nil {
		switch n := c.args[a]; n.t {
		case TFloat:
			return int64(math.Float64frombits(c.ctx.wordAt(n, int(c.rows[i]))))
		case TInt, TBool:
			return int64(c.ctx.wordAt(n, int(c.rows[i])))
		}
	}
	return c.Value(a, i).AsInt()
}

// Value returns argument a of row i.
func (c *Cols) Value(a, i int) Value {
	if c.ctx == nil {
		return c.vals[a]
	}
	return c.ctx.valueAt(c.args[a], int(c.rows[i]))
}

// stepRows folds the run into a through Step, one row at a time.
func (c *Cols) stepRows(a Aggregator) error {
	if cap(c.ctx.box) < len(c.args) {
		c.ctx.box = make([]Value, len(c.args))
	}
	args := c.ctx.box[:len(c.args)]
	for i := range c.rows {
		for ai := range args {
			args[ai] = c.Value(ai, i)
		}
		if err := a.Step(args); err != nil {
			return err
		}
	}
	return nil
}

// Sharer is implemented by aggregators that can read another slot's state
// in the same group (fdsum(ts, v) and fdavg(ts, v) read one frame). Share
// links onto o's state if it can, given both slots' argument expressions in
// canonical text, and reports whether it did. A linked aggregator folds,
// merges and shifts nothing itself, but finalizes and encodes its own view.
type Sharer interface {
	Aggregator
	Share(o Aggregator, args, oargs []string) bool
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
// Mergeable must be set only if the factory's aggregators implement Merger;
// Shares has effect only if they implement Sharer.
type AggSpec struct {
	// Name is the function name used in queries (case-insensitive).
	Name string
	// MinArgs and MaxArgs bound the argument count (count(*) passes 0).
	MinArgs, MaxArgs int
	// New creates an empty aggregator for one group.
	New func() Aggregator
	// Mergeable enables the two-level split for this aggregate.
	Mergeable bool
	// Shares lets planning link slots of the aggregate (Sharer).
	Shares bool
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

// StepCols counts the run: an int, bool or float argument is never NULL.
func (c *countAgg) StepCols(cs *Cols) error {
	if !cs.numeric() {
		return cs.stepRows(c)
	}
	c.n += int64(cs.Len())
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
// inputs (GS/C semantics). Like the other value aggregates it skips a NaN or
// ±Inf argument as it skips NULL: batches refuse non-finite columns, so only
// a computed argument (x/0.0) can be one.
type sumAgg struct {
	i       int64
	f       float64
	isFloat bool
	seen    bool
}

func (s *sumAgg) Step(args []Value) error {
	v := args[0]
	if v.IsNull() || v.T == TFloat && v.F-v.F != 0 {
		return nil // NULL or non-finite: as if absent
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

func (s *sumAgg) StepCols(c *Cols) error {
	if !c.numeric() {
		return c.stepRows(s)
	}
	if c.args[0].t == TFloat {
		for i := range c.rows {
			if x := c.Float(0, i); x-x == 0 {
				if !s.isFloat {
					s.f, s.isFloat = float64(s.i), true
				}
				s.f, s.seen = s.f+x, true
			}
		}
		return nil
	}
	s.seen = true
	for i := range c.rows {
		if s.isFloat {
			s.f += float64(c.Int(0, i))
		} else {
			s.i += c.Int(0, i)
		}
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

// avgAgg implements avg(expr) as a float mean of the finite values.
type avgAgg struct {
	sum float64
	n   int64
}

func (a *avgAgg) Step(args []Value) error {
	if x := args[0].AsFloat(); !args[0].IsNull() && x-x == 0 {
		a.sum += x
		a.n++
	}
	return nil
}

func (a *avgAgg) StepCols(c *Cols) error {
	if !c.numeric() {
		return c.stepRows(a)
	}
	for i := range c.rows {
		if x := c.Float(0, i); x-x == 0 {
			a.sum += x
			a.n++
		}
	}
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
// values, skipping non-finite floats.
type minmaxAgg struct {
	min  bool
	best Value
	seen bool
}

func (m *minmaxAgg) Step(args []Value) error {
	v := args[0]
	if v.IsNull() || v.T == TFloat && v.F-v.F != 0 {
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
	if v.T == TFloat && v.F-v.F != 0 {
		return
	}
	if !m.seen {
		m.best, m.seen = v, true
		return
	}
	if x, y := v.AsFloat(), m.best.AsFloat(); m.min && x < y || !m.min && x > y {
		m.best = v
	}
}

func (m *minmaxAgg) StepCols(c *Cols) error {
	if !c.numeric() || m.seen && m.best.T == TString {
		return c.stepRows(m)
	}
	n := c.args[0]
	for _, r := range c.rows {
		m.stepNum(wordValue(n.t, c.ctx.wordAt(n, int(r))))
	}
	return nil
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
