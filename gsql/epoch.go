package gsql

import (
	"fmt"
	"math"
	"slices"

	"forwarddecay/decay"
)

// Epoch rollover: runtime-wide landmark advancement (§III-A, §VI-A of the
// paper). Forward decay's static weights g(tᵢ−L) grow without bound, so any
// aggregate holding them in the linear domain degrades or overflows on
// week-long runs. Under exponential decay the landmark can be moved without
// revisiting items (ln g(n−δ) = ln g(n) − αδ, the rescaling trick of
// §VI-A), and every aggregate in this repository keeps its linear-domain
// state under a floating log scale — so a rollover is a uniform, exact,
// O(groups) translation of log quantities, not a lossy rescaling pass.
//
// The supervisor lives in the run (serial and sharded): it watches stream
// time (from tuples via EpochConfig.Time, and from heartbeats), rolls the
// landmark forward every EpochConfig.Every stream-time units, and keeps an
// overflow sentinel that fires when the model's log normalizer — the
// exponent a linear-domain consumer of decayed weights would have to
// exponentiate — crosses MaxLogWeight. On the sharded runtime a rollover
// quiesces the shards: pending batches are shipped, then an epoch request
// rides the same FIFO work channels, so every shard applies the shift at
// exactly the same point of its tuple sequence as the serial run would.

// DefaultMaxLogWeight is the sentinel threshold when EpochConfig leaves
// MaxLogWeight zero. exp(250) ≈ 3.7e108 is far inside float64 range
// (overflow near exp(709.78)) and below the accumulators' internal rebase
// point (core.MaxSafeExp = 300), so a roll triggered here is always exact:
// no state has started degrading yet.
const DefaultMaxLogWeight = 250

// LandmarkShifter is implemented by aggregators whose state can be rebased
// onto a new landmark (the agg package's decayed aggregates and the sample
// package's forward samplers, under exponential decay). The epoch supervisor
// shifts every aggregator that implements it; aggregators that do not —
// undecayed builtins, UDAFs fed caller-computed weights — are left alone.
type LandmarkShifter interface {
	ShiftLandmark(newL float64) error
}

// LandmarkReporter is implemented by aggregators that know their decay
// model's landmark. Restore uses it to verify that a checkpoint's stamped
// landmark matches the landmark embedded in every restored aggregate state,
// refusing checkpoints whose header and state frames disagree.
type LandmarkReporter interface {
	Landmark() float64
}

// EpochConfig enables the epoch supervisor on a run (Options.Epoch /
// ParallelOptions.Epoch).
type EpochConfig struct {
	// Model is the forward decay model whose landmark the supervisor
	// advances. Its function must support landmark shifting (exponential
	// decay) unless MonitorOnly is set.
	Model decay.Forward
	// Every is the rollover period in stream-time units (the same units as
	// Model's timestamps). Zero disables periodic rollover; the overflow
	// sentinel can still trigger rolls.
	Every float64
	// MaxLogWeight is the overflow-sentinel threshold on the model's log
	// normalizer ln g(t−L); zero means DefaultMaxLogWeight. When stream time
	// pushes the normalizer past it the sentinel trips and (unless
	// MonitorOnly) the landmark immediately rolls to the current stream
	// time.
	MaxLogWeight float64
	// MonitorOnly counts sentinel trips but never rolls the landmark —
	// neither periodically nor on overflow pressure. It exists to observe
	// the failure mode rollover removes.
	MonitorOnly bool
	// Time extracts the stream timestamp from an input tuple (ok=false to
	// skip). When nil, the supervisor advances only on Heartbeat.
	Time func(Tuple) (ts float64, ok bool)
	// TimeColumn optionally names the schema column Time reads, letting the
	// batch executor pull timestamps straight off the column vector instead
	// of materializing every row for the Time closure. It is a promise, not a
	// replacement: when set it must agree with Time (which stays authoritative
	// on the scalar path) for every tuple. Empty is always safe.
	TimeColumn string
}

// epochState is the per-run supervisor state.
type epochState struct {
	cfg     EpochConfig
	model   decay.Forward // current model; Landmark advances on each roll
	epoch   uint64        // completed rollovers over the run's lifetime (restored from checkpoints)
	rolls   uint64        // rollovers applied by this run instance
	trips   uint64        // sentinel threshold crossings
	tripped bool          // above threshold since the last roll
	maxLW   float64       // resolved sentinel threshold
}

// newEpochState validates the config; a nil config yields a nil state (the
// supervisor disabled) at zero per-tuple cost beyond one pointer test.
func newEpochState(cfg *EpochConfig) (*epochState, error) {
	if cfg == nil {
		return nil, nil
	}
	if cfg.Model.Func == nil {
		return nil, fmt.Errorf("gsql: epoch config needs a decay model")
	}
	if !cfg.MonitorOnly {
		if _, _, ok := cfg.Model.Shifted(cfg.Model.Landmark); !ok {
			return nil, &decay.NotShiftableError{Func: cfg.Model.Func.String()}
		}
	}
	mlw := cfg.MaxLogWeight
	if mlw <= 0 {
		mlw = DefaultMaxLogWeight
	}
	return &epochState{cfg: *cfg, model: cfg.Model, maxLW: mlw}, nil
}

// time extracts the stream timestamp from a tuple, if configured.
func (ep *epochState) time(t Tuple) (float64, bool) {
	if ep.cfg.Time == nil {
		return 0, false
	}
	return ep.cfg.Time(t)
}

// observe advances the supervisor clock to stream time ts and reports
// whether the landmark must roll, and to where. The sentinel path rolls all
// the way to ts (resetting pressure to zero); the periodic path rolls to the
// last whole period boundary, keeping roll times aligned regardless of gaps
// in the stream.
func (ep *epochState) observe(ts float64) (newL float64, roll bool) {
	if math.IsNaN(ts) || math.IsInf(ts, 0) {
		return 0, false
	}
	if pressure := ep.model.LogNormalizer(ts); pressure >= ep.maxLW {
		if !ep.tripped {
			ep.trips++
			ep.tripped = true
		}
		if !ep.cfg.MonitorOnly {
			return ts, true
		}
	} else {
		ep.tripped = false
	}
	if ep.cfg.Every > 0 && !ep.cfg.MonitorOnly {
		if d := ts - ep.model.Landmark; d >= ep.cfg.Every {
			return ep.model.Landmark + ep.cfg.Every*math.Floor(d/ep.cfg.Every), true
		}
	}
	return 0, false
}

// advanced records a completed roll onto newL.
func (ep *epochState) advanced(newL float64) {
	if m, _, ok := ep.model.Shifted(newL); ok {
		ep.model = m
	} else {
		ep.model.Landmark = newL
	}
	ep.epoch++
	ep.rolls++
	ep.tripped = false
}

// restoreFrom reinstates the epoch counter and landmark stamped into a
// checkpoint header.
func (ep *epochState) restoreFrom(epoch uint64, landmark float64) {
	ep.epoch = epoch
	ep.model = decay.Forward{Func: ep.cfg.Model.Func, Landmark: landmark}
}

// shiftAggs rolls every landmark-aware aggregator of one group onto newL.
// An error (an aggregate whose own decay function cannot shift) poisons the
// run: state across groups may then straddle two landmarks, so the caller
// must not continue pushing.
func shiftAggs(aggs []Aggregator, newL float64) error {
	for _, a := range aggs {
		if ls, ok := a.(LandmarkShifter); ok {
			if err := ls.ShiftLandmark(newL); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyLandmark checks every landmark-reporting aggregate of a restored
// group against the checkpoint's stamped landmark.
func verifyLandmark(aggs []Aggregator, epochSet bool, landmark float64) error {
	if !epochSet {
		return nil
	}
	for _, a := range aggs {
		if lr, ok := a.(LandmarkReporter); ok {
			if l := lr.Landmark(); l != landmark {
				return fmt.Errorf("gsql: checkpoint landmark mismatch: header stamps %g but aggregate state carries %g", landmark, l)
			}
		}
	}
	return nil
}

// ShiftLandmark rolls every live aggregate of the run onto a new landmark —
// the runtime-wide rollover. It is called automatically by the epoch
// supervisor and may also be invoked directly. On error (an aggregate whose
// decay function cannot shift) the run's state may straddle two landmarks
// and must be abandoned.
func (r *Run) ShiftLandmark(newL float64) error {
	if err := r.tab.eachGroup(func(g *group) error { return shiftAggs(r.aggsOf(g), newL) }); err != nil {
		return err
	}
	r.tab.curL, r.tab.landmarkSet = newL, true
	if r.ep != nil {
		r.ep.advanced(newL)
	}
	return nil
}

// born readies the run's aggregate slots for a group its table is giving
// birth to: the ones a closed bucket's group of the same id left, each Reset
// (or replaced, if it cannot be), else new ones. They are rebased onto the
// table's current landmark when a rollover has moved it: a group born
// mid-epoch must live in the same frame as every shifted group, or
// checkpoint verification (and cross-frame merges) would see state
// straddling two landmarks.
func (r *Run) born(g *group) error {
	k := len(r.p.aggSpecs)
	at := int(g.id) * k
	if n := at + k; n > len(r.aggs) {
		r.aggs = slices.Grow(r.aggs, n-len(r.aggs))[:n]
	}
	aggs := r.aggs[at : at+k]
	for i, a := range aggs {
		if rs, ok := a.(Resetter); ok {
			rs.Reset()
		} else {
			aggs[i] = r.p.aggSpecs[i].New()
		}
	}
	r.p.link(aggs)
	if r.tab.landmarkSet {
		return shiftAggs(aggs, r.tab.curL)
	}
	return nil
}

// epochHeartbeat advances the supervisor from a heartbeat timestamp.
func (r *Run) epochHeartbeat(ts Value) error {
	newL, roll := r.ep.observe(ts.AsFloat())
	if !roll {
		return nil
	}
	return r.ShiftLandmark(newL)
}
