package gsql

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/internal/codec"
)

// tcount is a minimal epoch-aware UDAF used by the in-package tests: a
// decayed count wrapping agg.Counter, carrying its model internally so the
// supervisor can shift it (udaf's fd* family follows the same shape, but
// udaf cannot be imported from inside gsql).
type tcountAgg struct {
	s    *agg.Counter
	last float64
}

func (a *tcountAgg) Step(args []Value) error {
	ts := args[0].AsFloat()
	a.s.Observe(ts)
	if ts > a.last {
		a.last = ts
	}
	return nil
}

func (a *tcountAgg) Final() Value { return Float(a.s.Value(a.last)) }

func (a *tcountAgg) Merge(o Aggregator) error {
	oa, ok := o.(*tcountAgg)
	if !ok {
		return errors.New("tcount: bad merge partner")
	}
	if oa.last > a.last {
		a.last = oa.last
	}
	return a.s.Merge(oa.s)
}

func (a *tcountAgg) ShiftLandmark(newL float64) error { return a.s.ShiftLandmark(newL) }
func (a *tcountAgg) Landmark() float64                { return a.s.Model().Landmark }

func (a *tcountAgg) MarshalBinary() ([]byte, error) {
	b, err := a.s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(a.last)), nil
}

func (a *tcountAgg) UnmarshalBinary(b []byte) error {
	if len(b) < 8 {
		return errors.New("tcount: truncated")
	}
	a.last = math.Float64frombits(binary.LittleEndian.Uint64(b[len(b)-8:]))
	return a.s.UnmarshalBinary(b[:len(b)-8])
}

// epochEngine registers the packet schema and the tcount UDAF for model m.
func epochEngine(t *testing.T, m decay.Forward) *Engine {
	t.Helper()
	e := mkEngine(t)
	if err := e.RegisterUDAF(AggSpec{
		Name: "tcount", MinArgs: 1, MaxArgs: 1, Mergeable: true,
		New: func() Aggregator { return &tcountAgg{s: agg.NewCounter(m)} },
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEpochObservePeriodic(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.25), 0)
	ep, err := newEpochState(&EpochConfig{Model: m, Every: 100, TimeColumn: "ftime"}, PacketSchema("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	if _, roll := ep.observe(50); roll {
		t.Fatal("rolled before the first period elapsed")
	}
	// Crossing several periods at once lands on the last whole boundary,
	// not on the observation time.
	newL, roll := ep.observe(250)
	if !roll || newL != 200 {
		t.Fatalf("observe(250) = (%g, %v), want (200, true)", newL, roll)
	}
	ep.advanced(newL)
	if ep.model.Landmark != 200 || ep.rolls != 1 {
		t.Fatalf("after advance: landmark %g rolls %d", ep.model.Landmark, ep.rolls)
	}
	// NaN and Inf observations are ignored.
	if _, roll := ep.observe(math.NaN()); roll {
		t.Fatal("NaN timestamp triggered a roll")
	}
	if _, roll := ep.observe(math.Inf(1)); roll {
		t.Fatal("+Inf timestamp triggered a roll")
	}
}

func TestEpochObserveSentinel(t *testing.T) {
	m := decay.NewForward(decay.NewExp(1), 0)
	ep, err := newEpochState(&EpochConfig{Model: m, MaxLogWeight: 50, TimeColumn: "ftime"}, PacketSchema("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	if _, roll := ep.observe(40); roll || ep.trips != 0 {
		t.Fatalf("below threshold: roll=%v trips=%d", roll, ep.trips)
	}
	// Pressure = LogNormalizer(60) = 60 >= 50: the sentinel fires and the
	// roll goes all the way to the observation time.
	newL, roll := ep.observe(60)
	if !roll || newL != 60 || ep.trips != 1 {
		t.Fatalf("observe(60) = (%g, %v) trips=%d, want (60, true) trips=1", newL, roll, ep.trips)
	}
	ep.advanced(newL)
	// Pressure resets after the roll; a later crossing counts a new trip.
	if _, roll := ep.observe(100); roll || ep.trips != 1 {
		t.Fatalf("post-roll observe(100): roll=%v trips=%d", roll, ep.trips)
	}
	newL, roll = ep.observe(115)
	if !roll || newL != 115 || ep.trips != 2 {
		t.Fatalf("observe(115) = (%g, %v) trips=%d, want (115, true) trips=2", newL, roll, ep.trips)
	}
}

func TestEpochMonitorOnly(t *testing.T) {
	m := decay.NewForward(decay.NewExp(1), 0)
	ep, err := newEpochState(&EpochConfig{Model: m, Every: 100, MaxLogWeight: 50, MonitorOnly: true, TimeColumn: "ftime"}, PacketSchema("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []float64{60, 70, 80, 200, 300} {
		if _, roll := ep.observe(ts); roll {
			t.Fatalf("monitor-only rolled at ts=%g", ts)
		}
	}
	// The latch counts one trip per crossing, not one per observation.
	if ep.trips != 1 {
		t.Fatalf("trips = %d, want 1 (latched)", ep.trips)
	}
	// Monitor-only accepts non-shiftable models: it never rolls.
	if _, err := newEpochState(&EpochConfig{Model: decay.NewForward(decay.NewPoly(2), 0), MonitorOnly: true}, PacketSchema("TCP")); err != nil {
		t.Fatalf("monitor-only rejected a polynomial model: %v", err)
	}
}

func TestEpochConfigRejected(t *testing.T) {
	exp := decay.NewForward(decay.NewExp(1), 0)
	poly := decay.NewForward(decay.NewPoly(2), 0)
	withHost := MustSchema("TCP",
		Column{Name: "time", Type: TInt}, Column{Name: "ftime", Type: TFloat}, Column{Name: "host", Type: TString})
	var nse *decay.NotShiftableError
	for _, tc := range []struct {
		name string
		cfg  EpochConfig
		ok   func(error) bool
	}{
		{"no model", EpochConfig{}, func(err error) bool { return strings.Contains(err.Error(), "needs a decay model") }},
		{"not shiftable", EpochConfig{Model: poly, Every: 10}, func(err error) bool { return errors.As(err, &nse) }},
		{"unknown time column", EpochConfig{Model: exp, Every: 10, TimeColumn: "nope"},
			func(err error) bool { return strings.Contains(err.Error(), `"nope" is not in stream`) }},
		{"non-numeric time column", EpochConfig{Model: exp, Every: 10, TimeColumn: "host"},
			func(err error) bool { return strings.Contains(err.Error(), `"host" of stream TCP is not numeric`) }},
	} {
		_, err := newEpochState(&tc.cfg, withHost)
		if err == nil || !tc.ok(err) {
			t.Fatalf("%s: newEpochState error = %v", tc.name, err)
		}

		// The same rejection surfaces through the serial run on first use,
		// and at NewMultiRun.
		e := NewEngine()
		if err := e.RegisterStream(withHost); err != nil {
			t.Fatal(err)
		}
		st, err := e.Prepare(`select host, count(*) from TCP group by host`)
		if err != nil {
			t.Fatal(err)
		}
		r := st.Start(func(Tuple) error { return nil }, Options{Epoch: &tc.cfg})
		if err := r.Push(Tuple{Int(1), Float(1), Str("h")}); err == nil || !tc.ok(err) {
			t.Fatalf("%s: serial Push error = %v", tc.name, err)
		}
		if _, err := NewMultiRun(e, "TCP", Options{Epoch: &tc.cfg}); err == nil || !tc.ok(err) {
			t.Fatalf("%s: NewMultiRun error = %v", tc.name, err)
		}
	}
}

// epochStream builds a deterministic packet stream over [0, n·gap) seconds.
func epochStream(n int, gap int64) []Tuple {
	tuples := make([]Tuple, 0, n)
	for i := 0; i < n; i++ {
		sec := int64(i) * gap
		tuples = append(tuples, pkt(sec, 1+sec%3, 80, 10+sec%7))
	}
	return tuples
}

// rowKey renders the group columns of an output row (all but the last
// aggregate column) as a map key.
func rowKey(row Tuple, aggCols int) string {
	var sb strings.Builder
	for _, v := range row[:len(row)-aggCols] {
		sb.WriteString(v.String())
		sb.WriteByte('|')
	}
	return sb.String()
}

// lastRows collapses emitted rows last-write-wins by group key.
func lastRows(rows []Tuple, aggCols int) map[string]Tuple {
	out := make(map[string]Tuple, len(rows))
	for _, r := range rows {
		out[rowKey(r, aggCols)] = r
	}
	return out
}

// bitEqual reports bitwise equality of two values (distinguishing floats by
// their bit patterns, so -0 != +0 and NaN == NaN).
func bitEqual(a, b Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == TFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

const testQuery = `select tb, dstIP, tcount(ftime) from TCP group by time/3600 as tb, dstIP`

// TestSerialRolloverEquivalence drives the same stream through a run that
// rolls its landmark every hour and a run that never rolls. Exponential
// decay with a dyadic alpha over integer timestamps makes the rollover an
// exact log-domain translation, so every output bit must match.
func TestSerialRolloverEquivalence(t *testing.T) {
	alpha := math.Exp2(-12)
	m := decay.NewForward(decay.NewExp(alpha), 0)
	e := epochEngine(t, m)
	tuples := epochStream(400, 600) // ~2.8 days, hourly buckets

	var subjRows, oracRows []Tuple
	st, err := e.Prepare(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	subj := st.Start(func(r Tuple) error { subjRows = append(subjRows, r); return nil },
		Options{Epoch: &EpochConfig{Model: m, Every: 3600, TimeColumn: "ftime"}})
	orac := st.Start(func(r Tuple) error { oracRows = append(oracRows, r); return nil }, Options{})
	for _, tp := range tuples {
		if err := subj.Push(tp); err != nil {
			t.Fatal(err)
		}
		if err := orac.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := subj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := orac.Close(); err != nil {
		t.Fatal(err)
	}

	if rolls := subj.RuntimeStats().EpochRollovers; rolls < 60 {
		t.Fatalf("subject rolled %d times, want >= 60 over ~2.8 days hourly", rolls)
	}
	if got := orac.RuntimeStats().EpochRollovers; got != 0 {
		t.Fatalf("oracle rolled %d times, want 0", got)
	}
	compareRowMaps(t, lastRows(subjRows, 1), lastRows(oracRows, 1))
}

func compareRowMaps(t *testing.T, subj, orac map[string]Tuple) {
	t.Helper()
	if len(subj) != len(orac) {
		t.Fatalf("row count differs: subject %d, oracle %d", len(subj), len(orac))
	}
	for k, sr := range subj {
		or, ok := orac[k]
		if !ok {
			t.Fatalf("subject group %q missing from oracle", k)
		}
		for i := range sr {
			if !bitEqual(sr[i], or[i]) {
				t.Fatalf("group %q column %d: subject %v oracle %v (bits %x vs %x)",
					k, i, sr[i], or[i], math.Float64bits(sr[i].F), math.Float64bits(or[i].F))
			}
		}
	}
}

// TestEpochStatsCounters pins the RuntimeStats rollover and sentinel
// counters to exact values on a hand-built stream.
func TestEpochStatsCounters(t *testing.T) {
	m := decay.NewForward(decay.NewExp(1), 0)
	e := epochEngine(t, m)
	st, err := e.Prepare(`select dstIP, tcount(ftime) from TCP group by dstIP`)
	if err != nil {
		t.Fatal(err)
	}

	// Periodic only: tuples at 0,50,...,1000 with Every=100 roll at each
	// boundary crossing: exactly 10 rolls, no trips (threshold never hit).
	r := st.Start(func(Tuple) error { return nil },
		Options{Epoch: &EpochConfig{Model: m, Every: 100, MaxLogWeight: 1e9, TimeColumn: "ftime"}})
	for sec := int64(0); sec <= 1000; sec += 50 {
		if err := r.Push(pkt(sec, 1, 80, 1)); err != nil {
			t.Fatal(err)
		}
	}
	stats := r.RuntimeStats()
	if stats.EpochRollovers != 10 || stats.SentinelTrips != 0 {
		t.Fatalf("periodic: rolls=%d trips=%d, want 10/0", stats.EpochRollovers, stats.SentinelTrips)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Sentinel only: alpha=1, threshold 10. Trips at 12 (rolls to 12) and
	// again at 25 (pressure 13): exactly 2 trips, 2 rolls.
	r = st.Start(func(Tuple) error { return nil },
		Options{Epoch: &EpochConfig{Model: m, MaxLogWeight: 10, TimeColumn: "ftime"}})
	for _, sec := range []int64{5, 12, 20, 25} {
		if err := r.Push(pkt(sec, 1, 80, 1)); err != nil {
			t.Fatal(err)
		}
	}
	stats = r.RuntimeStats()
	if stats.EpochRollovers != 2 || stats.SentinelTrips != 2 {
		t.Fatalf("sentinel: rolls=%d trips=%d, want 2/2", stats.EpochRollovers, stats.SentinelTrips)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Monitor-only: the same stream counts the trip but never rolls.
	r = st.Start(func(Tuple) error { return nil },
		Options{Epoch: &EpochConfig{Model: m, MaxLogWeight: 10, MonitorOnly: true, TimeColumn: "ftime"}})
	for _, sec := range []int64{5, 12, 20} {
		if err := r.Push(pkt(sec, 1, 80, 1)); err != nil {
			t.Fatal(err)
		}
	}
	stats = r.RuntimeStats()
	if stats.EpochRollovers != 0 || stats.SentinelTrips != 1 {
		t.Fatalf("monitor-only: rolls=%d trips=%d, want 0/1", stats.EpochRollovers, stats.SentinelTrips)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatDrivesRollover checks that stream-time heartbeats advance the
// supervisor even when no tuples arrive.
func TestHeartbeatDrivesRollover(t *testing.T) {
	m := decay.NewForward(decay.NewExp(math.Exp2(-4)), 0)
	e := epochEngine(t, m)
	st, err := e.Prepare(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	cfg := func() *EpochConfig { return &EpochConfig{Model: m, Every: 100, TimeColumn: "ftime"} }

	r := st.Start(func(Tuple) error { return nil }, Options{Epoch: cfg()})
	if err := r.Push(pkt(10, 1, 80, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Heartbeat(Int(500)); err != nil {
		t.Fatal(err)
	}
	if rolls := r.RuntimeStats().EpochRollovers; rolls != 1 {
		t.Fatalf("serial heartbeat: rolls=%d, want 1", rolls)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointEpochRoundTrip interrupts an epoch-rolling run mid-epoch and
// verifies the restored run reaches exactly the state of an uninterrupted
// one — including the reinstated landmark, which the next checkpoint must
// stamp identically.
func TestCheckpointEpochRoundTrip(t *testing.T) {
	alpha := math.Exp2(-8)
	m := decay.NewForward(decay.NewExp(alpha), 0)
	e := epochEngine(t, m)
	st, err := e.Prepare(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	opts := func() Options {
		return Options{DisableTwoLevel: true, Epoch: &EpochConfig{Model: m, Every: 3600, TimeColumn: "ftime"}}
	}
	tuples := epochStream(200, 300) // ~16.6 hours: several rolls

	var fullRows []Tuple
	full := st.Start(func(r Tuple) error { fullRows = append(fullRows, r); return nil }, opts())
	for _, tp := range tuples {
		if err := full.Push(tp); err != nil {
			t.Fatal(err)
		}
	}

	// Interrupted run: cut at a point strictly inside an epoch.
	cut := 101 // t = 30300s: mid-way through the 9th hour
	var rows []Tuple
	r1 := st.Start(func(r Tuple) error { rows = append(rows, r); return nil }, opts())
	for _, tp := range tuples[:cut] {
		if err := r1.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := r1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rolledAtCkpt := r1.RuntimeStats().EpochRollovers
	if rolledAtCkpt == 0 {
		t.Fatal("checkpoint taken before any rollover; stream too short")
	}
	r2, err := st.Restore(ck, func(r Tuple) error { rows = append(rows, r); return nil }, opts())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r2.ep.model.Landmark, r1.ep.model.Landmark; got != want {
		t.Fatalf("restored landmark %g, want %g", got, want)
	}
	if r2.ep.epoch != r1.ep.epoch {
		t.Fatalf("restored epoch %d, want %d", r2.ep.epoch, r1.ep.epoch)
	}
	for _, tp := range tuples[cut:] {
		if err := r2.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	// The restored run keeps rolling on the original period grid.
	if r2.ep.model.Landmark != full.ep.model.Landmark {
		t.Fatalf("final landmark %g, want %g", r2.ep.model.Landmark, full.ep.model.Landmark)
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	compareRowMaps(t, lastRows(rows, 1), lastRows(fullRows, 1))
}

// TestCheckpointLandmarkMismatchRefused hand-tampers a checkpoint so the
// stamped landmark disagrees with the landmark embedded in the aggregate
// states, and verifies restore refuses to merge across frames.
func TestCheckpointLandmarkMismatchRefused(t *testing.T) {
	m := decay.NewForward(decay.NewExp(0.25), 0)
	e := epochEngine(t, m)
	st, err := e.Prepare(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Epoch: &EpochConfig{Model: m, Every: 1e12, TimeColumn: "ftime"}}
	r := st.Start(func(Tuple) error { return nil }, opts)
	for sec := int64(0); sec < 10; sec++ {
		if err := r.Push(pkt(sec, 1, 80, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	body, err := unsealCkpt(ck)
	if err != nil {
		t.Fatal(err)
	}
	// Header layout with an Int bucket: magic(4) fp(8) ng(8) na(8)
	// bucketFlag(1) bucket(1+8) tuples(8) epochFlag(1) epoch(8) landmark(8).
	const lmOff = 4 + 8 + 8 + 8 + 1 + 9 + 8 + 1 + 8
	if got := math.Float64frombits(binary.LittleEndian.Uint64(body[lmOff:])); got != 0 {
		t.Fatalf("header landmark at offset %d is %g, want 0 — layout drifted", lmOff, got)
	}
	tampered := append([]byte(nil), body...)
	binary.LittleEndian.PutUint64(tampered[lmOff:], math.Float64bits(3600.0))
	if _, err := st.Restore(codec.Seal(tampered), func(Tuple) error { return nil }, opts); err == nil ||
		!strings.Contains(err.Error(), "landmark mismatch") {
		t.Fatalf("tampered restore error = %v, want landmark mismatch", err)
	}
	// A non-finite stamped landmark is refused before any entry is read.
	tampered = append([]byte(nil), body...)
	binary.LittleEndian.PutUint64(tampered[lmOff:], math.Float64bits(math.NaN()))
	if _, err := st.Restore(codec.Seal(tampered), func(Tuple) error { return nil }, opts); err == nil ||
		!strings.Contains(err.Error(), "non-finite landmark") {
		t.Fatalf("NaN-landmark restore error = %v, want non-finite landmark", err)
	}
}

// TestShiftLandmarkDirect exercises the public rollover entry points outside
// the supervisor: callers may roll a run by hand.
func TestShiftLandmarkDirect(t *testing.T) {
	alpha := math.Exp2(-6)
	m := decay.NewForward(decay.NewExp(alpha), 0)
	e := epochEngine(t, m)
	st, err := e.Prepare(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	var subjRows, oracRows []Tuple
	subj := st.Start(func(r Tuple) error { subjRows = append(subjRows, r); return nil }, Options{})
	orac := st.Start(func(r Tuple) error { oracRows = append(oracRows, r); return nil }, Options{})
	for sec := int64(0); sec < 500; sec += 10 {
		tp := pkt(sec, 1, 80, 1)
		if err := subj.Push(tp); err != nil {
			t.Fatal(err)
		}
		if err := orac.Push(tp); err != nil {
			t.Fatal(err)
		}
		if sec == 250 {
			if err := subj.ShiftLandmark(128); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := subj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := orac.Close(); err != nil {
		t.Fatal(err)
	}
	compareRowMaps(t, lastRows(subjRows, 1), lastRows(oracRows, 1))
}
