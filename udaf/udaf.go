// Package udaf adapts the forward-decay algorithms and the backward-decay
// baselines to gsql user-defined aggregate functions, mirroring the way the
// paper's experiments install their C UDAFs into Gigascope: no query
// language extensions, just registered aggregates.
//
// The registered functions (all case-insensitive in queries):
//
//	prisamp(item, logw)   priority sampling with weight exp(logw) (§V-B);
//	                      pass the forward-decay static log-weight, e.g.
//	                      prisamp(srcIP, 2*ln(time % 60)) for g(n)=n²
//	wrsamp(item, logw)    weighted reservoir sampling (Efraimidis–Spirakis)
//	ressamp(item)         undecayed reservoir sampling (Vitter) — baseline
//	aggsamp(item)         Aggarwal biased reservoir — exponential-decay
//	                      baseline
//	sshh(key, w)          weighted SpaceSaving heavy hitters (Theorem 2);
//	                      w is the linear-domain weight (e.g. (time%60)*
//	                      (time%60) for quadratic forward decay)
//	unaryhh(key)          unary-optimised SpaceSaving — undecayed baseline
//	swhh(key, ts, w)      sliding-window heavy hitters — backward baseline
//	ehsum(ts, v)          backward-decayable sum over an Exponential
//	                      Histogram (Cohen–Strauss) — the Figure 2 baseline
//	fdquant(v, logw)      weighted q-digest quantiles (Theorem 3)
//	fddistinct(key, logw) decayed count-distinct via the dominance-norm
//	                      estimator (Theorem 4); returns the unnormalized
//	                      dominance norm Σ_v max exp(logw)
//
// Sampling and heavy-hitter UDAFs return a string rendering of their result
// (samples, or "key:count" pairs); ehsum returns the sliding-window sum and
// is decayed at query time through the Config's age function.
//
// Config fixes the parameters (sample sizes, ε, window, decay for ehsum)
// that GSQL's aggregate syntax does not carry per-call.
package udaf

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/sample"
	"forwarddecay/sketch"
	"forwarddecay/window"
)

// Config parameterizes the registered UDAFs.
type Config struct {
	// SampleSize is the k of the sampling UDAFs (default 100).
	SampleSize int
	// Epsilon is the accuracy of sshh, unaryhh, swhh and ehsum
	// (default 0.01).
	Epsilon float64
	// Window is the sliding-window length for swhh and the horizon for
	// ehsum, in timestamp units (default 60).
	Window float64
	// EHDecay is the backward decay applied by ehsum at bucket-close time
	// (default sliding window over Window).
	EHDecay decay.AgeFunc
	// Phi is the heavy-hitter threshold used when rendering HH results
	// (default 0.01).
	Phi float64
	// Seed seeds the randomized UDAFs.
	Seed uint64
	// QuantileU is the value domain of fdquant (default 65536); QuantilePhi
	// the reported quantile (default 0.5).
	QuantileU   uint64
	QuantilePhi float64
	// Decay, when its Func is set, additionally registers the epoch-aware
	// fd* aggregate family (fdcount, fdsum, fdavg, fdvar, fdmin, fdmax,
	// fdhh, fdpct, fdcard, fdprisamp, fdwrsamp — see epoch.go): these take
	// raw timestamps, carry the model internally, and support runtime-wide
	// landmark rollover via gsql's epoch supervisor. Leaving it unset keeps
	// the registration surface exactly as before.
	Decay decay.Forward
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SampleSize == 0 {
		c.SampleSize = 100
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.01
	}
	if c.Window == 0 {
		c.Window = 60
	}
	if c.EHDecay == nil {
		c.EHDecay = decay.NewSlidingWindow(c.Window)
	}
	if c.Phi == 0 {
		c.Phi = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QuantileU == 0 {
		c.QuantileU = 65536
	}
	if c.QuantilePhi == 0 {
		c.QuantilePhi = 0.5
	}
	return c
}

// RegisterAll installs every UDAF into the engine.
func RegisterAll(e *gsql.Engine, cfg Config) error {
	cfg = cfg.withDefaults()
	specs := []gsql.AggSpec{
		{Name: "prisamp", MinArgs: 2, MaxArgs: 2,
			New: func() gsql.Aggregator {
				return &prisampAgg{s: sample.NewPriority[gsql.Value](cfg.SampleSize, cfg.Seed)}
			}},
		{Name: "wrsamp", MinArgs: 2, MaxArgs: 2,
			New: func() gsql.Aggregator {
				return &wrsampAgg{s: sample.NewWRS[gsql.Value](cfg.SampleSize, cfg.Seed)}
			}},
		{Name: "ressamp", MinArgs: 1, MaxArgs: 1,
			New: func() gsql.Aggregator {
				return &ressampAgg{s: sample.NewReservoir[gsql.Value](cfg.SampleSize, cfg.Seed)}
			}},
		{Name: "aggsamp", MinArgs: 1, MaxArgs: 1,
			New: func() gsql.Aggregator {
				return &aggsampAgg{s: sample.NewAggarwal[gsql.Value](cfg.SampleSize, cfg.Seed)}
			}},
		{Name: "sshh", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator {
				return &sshhAgg{s: sketch.NewSpaceSaving(cfg.Epsilon), phi: cfg.Phi}
			}},
		{Name: "unaryhh", MinArgs: 1, MaxArgs: 1,
			New: func() gsql.Aggregator {
				return &unaryhhAgg{s: sketch.NewStreamSummary(int(1 / cfg.Epsilon)), phi: cfg.Phi}
			}},
		{Name: "swhh", MinArgs: 3, MaxArgs: 3,
			New: func() gsql.Aggregator {
				return &swhhAgg{s: window.NewHeavyHitters(cfg.Window, cfg.Epsilon), phi: cfg.Phi}
			}},
		{Name: "ehsum", MinArgs: 2, MaxArgs: 2,
			New: func() gsql.Aggregator {
				return &ehsumAgg{s: sketch.NewExpHistogram(cfg.Epsilon, cfg.Window), f: cfg.EHDecay}
			}},
		{Name: "fdquant", MinArgs: 2, MaxArgs: 2,
			New: func() gsql.Aggregator {
				return &fdquantAgg{s: sketch.NewQDigest(cfg.QuantileU, cfg.Epsilon), phi: cfg.QuantilePhi}
			}},
		{Name: "fddistinct", MinArgs: 2, MaxArgs: 2, Mergeable: true,
			New: func() gsql.Aggregator {
				return &fddistinctAgg{s: sketch.NewDominance(1024, 1.05, 1024)}
			}},
	}
	if cfg.Decay.Func != nil {
		specs = append(specs, epochSpecs(cfg)...)
	}
	for _, s := range specs {
		if err := e.RegisterUDAF(s); err != nil {
			return fmt.Errorf("udaf: registering %s: %w", s.Name, err)
		}
	}
	return nil
}

// eachRow calls f for every row of a StepCols run.
func eachRow(n int, f func(i int)) error {
	for i := range n {
		f(i)
	}
	return nil
}

// renderSample joins the sampled values' renderings, in ascending string
// order, into one string.
func renderSample(items []gsql.Value) gsql.Value {
	b := make([]byte, 0, 8*len(items))
	spans := make([][2]int, len(items))
	for i, v := range items {
		spans[i][0] = len(b)
		b = appendValue(b, v)
		spans[i][1] = len(b)
	}
	slices.SortFunc(spans, func(x, y [2]int) int { return bytes.Compare(b[x[0]:x[1]], b[y[0]:y[1]]) })
	var sb strings.Builder
	sb.Grow(len(b) + len(items))
	for i, sp := range spans {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.Write(b[sp[0]:sp[1]])
	}
	return gsql.Str(sb.String())
}

// appendValue appends v's String rendering.
func appendValue(b []byte, v gsql.Value) []byte {
	switch v.T {
	case gsql.TInt:
		return strconv.AppendInt(b, v.I, 10)
	case gsql.TFloat:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case gsql.TString:
		return append(b, v.S...)
	default:
		return append(b, v.String()...)
	}
}

// renderWeighted renders a weighted sample's items.
func renderWeighted(ws []sample.Weighted[gsql.Value]) gsql.Value {
	items := make([]gsql.Value, len(ws))
	for i, w := range ws {
		items[i] = w.Item
	}
	return renderSample(items)
}

// renderHH renders heavy hitters as "key:count" pairs (the count as
// fmt's %.6g writes it) in the given order, into one string.
func renderHH(items []sketch.ItemCount) gsql.Value {
	b := make([]byte, 0, 20*len(items))
	for i, ic := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, ic.Key, 10)
		b = append(b, ':')
		b = strconv.AppendFloat(b, ic.Count, 'g', 6, 64)
	}
	return gsql.Str(string(b))
}

type prisampAgg struct {
	s *sample.Priority[gsql.Value]
}

func (a *prisampAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *prisampAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { a.s.Add(c.Value(0, i), c.Float(1, i)) })
}

func (a *prisampAgg) Final() gsql.Value { return renderWeighted(a.s.Sample(0)) }

type wrsampAgg struct {
	s *sample.WRS[gsql.Value]
}

func (a *wrsampAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *wrsampAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { a.s.Add(c.Value(0, i), c.Float(1, i)) })
}

func (a *wrsampAgg) Final() gsql.Value { return renderSample(a.s.Sample()) }

type ressampAgg struct {
	s *sample.Reservoir[gsql.Value]
}

func (a *ressampAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *ressampAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { a.s.Add(c.Value(0, i)) })
}
func (a *ressampAgg) Final() gsql.Value { return renderSample(a.s.Sample()) }

type aggsampAgg struct {
	s *sample.Aggarwal[gsql.Value]
}

func (a *aggsampAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *aggsampAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { a.s.Add(c.Value(0, i)) })
}
func (a *aggsampAgg) Final() gsql.Value { return renderSample(a.s.Sample()) }

type sshhAgg struct {
	s   *sketch.SpaceSaving
	phi float64
}

func (a *sshhAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *sshhAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { a.s.Update(uint64(c.Int(0, i)), c.Float(1, i)) })
}

func (a *sshhAgg) Final() gsql.Value { return renderHH(a.s.HeavyHitters(a.phi)) }

func (a *sshhAgg) Merge(o gsql.Aggregator) error {
	oa, ok := o.(*sshhAgg)
	if !ok {
		return fmt.Errorf("udaf: sshh: cannot merge %T", o)
	}
	a.s.Merge(oa.s)
	return nil
}

type unaryhhAgg struct {
	s   *sketch.StreamSummary
	phi float64
}

func (a *unaryhhAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *unaryhhAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { a.s.Update(uint64(c.Int(0, i))) })
}

func (a *unaryhhAgg) Final() gsql.Value { return renderHH(a.s.HeavyHitters(a.phi)) }

type swhhAgg struct {
	s   *window.HeavyHitters
	phi float64
	lastTS
}

func (a *swhhAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *swhhAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) {
		ts := c.Float(1, i)
		a.s.Observe(uint64(c.Int(0, i)), ts, c.Float(2, i))
		a.see(ts)
	})
}

func (a *swhhAgg) Final() gsql.Value { return renderHH(a.s.Query(a.last, a.phi)) }

// Reset empties the aggregator for the run to recycle, keeping the
// structure's arenas and tables.
func (a *swhhAgg) Reset() { a.s.Reset(); a.lastTS = lastTS{} }

type ehsumAgg struct {
	s *sketch.ExpHistogram
	f decay.AgeFunc
	lastTS
}

func (a *ehsumAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *ehsumAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { ts := c.Float(0, i); a.s.Insert(ts, c.Float(1, i)); a.see(ts) })
}

func (a *ehsumAgg) Final() gsql.Value { return gsql.Float(a.s.DecayedSum(a.f, a.last)) }

// Reset empties the aggregator for the run to recycle, keeping the
// histogram's node pool and class table.
func (a *ehsumAgg) Reset() { a.s.Reset(); a.lastTS = lastTS{} }

type fdquantAgg struct {
	s   *sketch.QDigest
	phi float64
}

func (a *fdquantAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }

// StepCols exponentiates the log-domain static weights (log for symmetry
// with the samplers; small decayed queries stay in range).
func (a *fdquantAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) {
		w := 1.0
		if lw := c.Float(1, i); lw != 0 {
			w = expSafe(lw)
		}
		if agg.IsFinite(c.Float(0, i)) {
			a.s.Update(uint64(c.Int(0, i)), w)
		}
	})
}

func (a *fdquantAgg) Final() gsql.Value { return gsql.Int(int64(a.s.Quantile(a.phi))) }

type fddistinctAgg struct {
	s *sketch.Dominance
}

func (a *fddistinctAgg) Step(args []gsql.Value) error { c := gsql.RowCols(args); return a.StepCols(&c) }
func (a *fddistinctAgg) StepCols(c *gsql.Cols) error {
	return eachRow(c.Len(), func(i int) { a.s.Update(uint64(c.Int(0, i)), c.Float(1, i)) })
}

func (a *fddistinctAgg) Final() gsql.Value {
	return gsql.Float(math.Exp(a.s.LogEstimate()))
}

func (a *fddistinctAgg) Merge(o gsql.Aggregator) error {
	oa, ok := o.(*fddistinctAgg)
	if !ok {
		return fmt.Errorf("udaf: fddistinct: cannot merge %T", o)
	}
	return a.s.Merge(oa.s)
}

// expSafe is a clamped exponential for UDAF weights.
func expSafe(x float64) float64 {
	if x > 300 {
		x = 300
	}
	if x < -300 {
		return 0
	}
	return math.Exp(x)
}
