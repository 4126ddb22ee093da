package gsql_test

// Chaos-soak harness for epoch rollover: simulated multi-week streams drive
// a rolling runtime through interleaved faults (crashes with restore-and-
// replay, corrupt-checkpoint probes, heartbeats) and the result is compared
// against a fault-free, never-rolling oracle fed the identical event tape.
// Exponential decay with a dyadic alpha over integer timestamps makes every
// rollover an exact log-domain translation, so the decayed count, sum,
// average, variance and distinct-count must match the oracle bit for bit;
// min/max and the sketch-backed heavy hitters and quantiles are held to
// tight epsilons. The tapes come from internal/faultinject.SoakSchedule and
// are pure functions of the seed: a failure replays exactly.
//
// Both runs use DisableTwoLevel: low-level eviction merges reorder float
// additions across a crash-restore, which would blur the bit-exact
// comparison the soak is after without exercising anything epoch-related.

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/internal/faultinject"
	"forwarddecay/udaf"
)

// soakQuery exercises the full epoch-aware aggregate surface that supports
// merging and checkpointing, bucketed by simulated day.
const soakQuery = `select tb, dstIP,
    fdcount(ftime), fdsum(ftime, float(len)), fdavg(ftime, float(len)),
    fdvar(ftime, float(len)), fdmin(ftime, float(len)), fdmax(ftime, float(len)),
    fdhh(destPort, ftime), fdpct(len, ftime), fdcard(destPort, ftime)
  from TCP group by time/86400 as tb, dstIP`

const soakAggCols = 9 // aggregate columns after the two group columns

// soakEngine builds an engine with the packet schema and the udaf registry
// (including the fd* family for model m).
func soakEngine(t *testing.T, m decay.Forward) *gsql.Engine {
	t.Helper()
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	if err := udaf.RegisterAll(e, udaf.Config{Decay: m}); err != nil {
		t.Fatal(err)
	}
	return e
}

// soakTuple maps one scheduled tuple event onto the packet schema: the key
// spreads over four dstIP groups per day and sixteen destPort values for the
// heavy-hitter and distinct aggregates; the value becomes len.
func soakTuple(e faultinject.SoakEvent) gsql.Tuple {
	sec := int64(e.T)
	return gsql.Tuple{
		gsql.Int(sec), gsql.Float(float64(sec)), gsql.Int(100),
		gsql.Int(int64(e.Key % 4)), gsql.Int(4242), gsql.Int(int64(e.Key)),
		gsql.Int(6), gsql.Int(int64(e.Val)),
	}
}

// soakHarness starts and restores runs; a crash drops the run without a
// clean close.
type soakHarness struct {
	start   func() *gsql.Run
	restore func(ck []byte) (*gsql.Run, error)
}

// soakOutcome aggregates what the harness observed across run instances.
type soakOutcome struct {
	rolls   uint64
	trips   uint64
	crashes int
	probes  int
}

// driveSoak replays an event tape against the harness: tuples and
// heartbeats feed the live run, checkpoints snapshot it, corrupt probes
// verify a damaged snapshot is refused, and crashes abandon the run and
// restore-and-replay from the latest snapshot.
func driveSoak(t *testing.T, events []faultinject.SoakEvent, h soakHarness) soakOutcome {
	t.Helper()
	run := h.start()
	var out soakOutcome
	var lastCk []byte
	var replay []faultinject.SoakEvent
	collect := func() {
		st := run.RuntimeStats()
		out.rolls += st.EpochRollovers
		out.trips += st.SentinelTrips
	}
	for i, e := range events {
		switch e.Op {
		case faultinject.SoakTuple:
			if err := run.Push(soakTuple(e)); err != nil {
				t.Fatalf("event %d: push: %v", i, err)
			}
			replay = append(replay, e)
		case faultinject.SoakHeartbeat:
			if err := run.Heartbeat(gsql.Int(int64(e.T))); err != nil {
				t.Fatalf("event %d: heartbeat: %v", i, err)
			}
			replay = append(replay, e)
		case faultinject.SoakCheckpoint:
			ck, err := run.Checkpoint()
			if err != nil {
				t.Fatalf("event %d: checkpoint: %v", i, err)
			}
			lastCk, replay = ck, replay[:0]
		case faultinject.SoakCorrupt:
			if lastCk == nil {
				continue
			}
			bad := faultinject.CorruptByte(lastCk, uint64(i))
			if _, err := h.restore(bad); err == nil {
				t.Fatalf("event %d: corrupt checkpoint restored without error", i)
			}
			out.probes++
		case faultinject.SoakCrash:
			if lastCk == nil {
				continue
			}
			collect()
			var err error
			if run, err = h.restore(lastCk); err != nil {
				t.Fatalf("event %d: restore after crash: %v", i, err)
			}
			for _, re := range replay {
				if re.Op == faultinject.SoakHeartbeat {
					err = run.Heartbeat(gsql.Int(int64(re.T)))
				} else {
					err = run.Push(soakTuple(re))
				}
				if err != nil {
					t.Fatalf("event %d: replay: %v", i, err)
				}
			}
			out.crashes++
		}
	}
	collect()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// soakFeed drives the tuple and heartbeat events of a tape into a fault-free
// run, ignoring the fault events.
func soakFeed(t *testing.T, events []faultinject.SoakEvent, run *gsql.Run) {
	t.Helper()
	for i, e := range events {
		var err error
		switch e.Op {
		case faultinject.SoakTuple:
			err = run.Push(soakTuple(e))
		case faultinject.SoakHeartbeat:
			err = run.Heartbeat(gsql.Int(int64(e.T)))
		}
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- row comparison -----------------------------------------------------

func soakRowKey(row gsql.Tuple, aggCols int) string {
	var sb strings.Builder
	for _, v := range row[:len(row)-aggCols] {
		sb.WriteString(v.String())
		sb.WriteByte('|')
	}
	return sb.String()
}

// soakLastRows collapses emitted rows last-write-wins by group key: crashes
// and heartbeat flushes may emit a bucket more than once, and the final
// emission carries the group's complete state.
func soakLastRows(rows []gsql.Tuple, aggCols int) map[string]gsql.Tuple {
	out := make(map[string]gsql.Tuple, len(rows))
	for _, r := range rows {
		out[soakRowKey(r, aggCols)] = r
	}
	return out
}

func soakBitEqual(a, b gsql.Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == gsql.TFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

func soakRelClose(a, b, eps float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

// soakParseHH parses a rendered heavy-hitter string ("key:count,...") into
// a map.
func soakParseHH(t *testing.T, s string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	if s == "" {
		return out
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			t.Fatalf("malformed heavy-hitter entry %q in %q", part, s)
		}
		c, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			t.Fatalf("malformed heavy-hitter count %q: %v", part, err)
		}
		out[kv[0]] = c
	}
	return out
}

// soakCompare checks a subject row map against the oracle: count, sum,
// average, variance and distinct-count bit for bit; min/max within 1e-9;
// heavy hitters per-key within 1e-6; the quantile exactly.
func soakCompare(t *testing.T, subj, orac map[string]gsql.Tuple) {
	t.Helper()
	if len(subj) != len(orac) {
		t.Fatalf("row count differs: subject %d, oracle %d", len(subj), len(orac))
	}
	for k, sr := range subj {
		or, ok := orac[k]
		if !ok {
			t.Fatalf("subject group %q missing from oracle", k)
		}
		g := len(sr) - soakAggCols
		fail := func(i int, why string) {
			t.Fatalf("group %q column %d: subject %v, oracle %v: %s", k, i, sr[i], or[i], why)
		}
		for _, i := range []int{g + 0, g + 1, g + 2, g + 3, g + 8} { // count, sum, avg, var, card
			if !soakBitEqual(sr[i], or[i]) {
				fail(i, "not bit-identical")
			}
		}
		for _, i := range []int{g + 4, g + 5} { // min, max
			if !soakRelClose(sr[i].AsFloat(), or[i].AsFloat(), 1e-9) {
				fail(i, "beyond 1e-9 relative")
			}
		}
		sh, oh := soakParseHH(t, sr[g+6].S), soakParseHH(t, or[g+6].S)
		if len(sh) != len(oh) {
			fail(g+6, "different heavy-hitter sets")
		}
		for key, sc := range sh {
			oc, ok := oh[key]
			if !ok || !soakRelClose(sc, oc, 1e-6) {
				fail(g+6, "heavy hitter "+key+" diverged")
			}
		}
		if !soakBitEqual(sr[g+7], or[g+7]) { // quantile
			fail(g+7, "quantile differs")
		}
	}
}

// --- subtest A: 30-day chaos soak vs fault-free oracle -------------------

// soakScheduleA is the chaos tape: a month of stream time (two days under
// -short) with periodic heartbeats, checkpoints, corrupt probes and crashes.
func soakScheduleA(short bool) faultinject.SoakConfig {
	if short {
		return faultinject.SoakConfig{
			Seed: 1, Duration: 2 * 86400, MeanGap: 300, Keys: 16,
			HeartbeatEvery: 7200, CheckpointEvery: 14400,
			CrashEvery: 43200, CorruptEvery: 50000,
		}
	}
	return faultinject.SoakConfig{
		Seed: 1, Duration: 30 * 86400, MeanGap: 300, Keys: 16,
		HeartbeatEvery: 7200, CheckpointEvery: 43200,
		CrashEvery: 2 * 86400, CorruptEvery: 100000,
	}
}

// TestSoakTapesPinned pins the serial chaos tapes (both lengths) and the
// catalog-churn tape to digests recorded before the schedule generator lost
// its landmark-roll events, which these tapes never held.
func TestSoakTapesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  faultinject.SoakConfig
		want string
	}{
		{"serial short", soakScheduleA(true), "bfca82deba277c207e389a94a49c1e0ca986d8d2c66e9622f6622dd376f9024e"},
		{"serial", soakScheduleA(false), "629a2117c60993c1fdbefb133accaedd73cd14ff3b507e288695c55bb4e7ab5c"},
		{"catalog churn", churnSoakConfig(), "3a4ff854b6b6b443c39500b11b9335bfa83db8af284ac6620262187733933c22"},
	} {
		if got := faultinject.SoakDigest(faultinject.SoakSchedule(c.cfg)); got != c.want {
			t.Errorf("%s tape digest %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSoakChaosSerial(t *testing.T) {
	cfg := soakScheduleA(testing.Short())
	events := faultinject.SoakSchedule(cfg)
	m := decay.NewForward(decay.NewExp(math.Exp2(-12)), 0)
	e := soakEngine(t, m)
	st, err := e.Prepare(soakQuery)
	if err != nil {
		t.Fatal(err)
	}

	var subjRows []gsql.Tuple
	subjSink := func(r gsql.Tuple) error { subjRows = append(subjRows, r); return nil }
	opts := func() gsql.Options {
		return gsql.Options{
			DisableTwoLevel: true,
			Epoch:           &gsql.EpochConfig{Model: m, Every: 3600, TimeColumn: "ftime"},
		}
	}
	out := driveSoak(t, events, soakHarness{
		start:   func() *gsql.Run { return st.Start(subjSink, opts()) },
		restore: func(ck []byte) (*gsql.Run, error) { return st.Restore(ck, subjSink, opts()) },
	})

	var oracRows []gsql.Tuple
	orac := st.Start(func(r gsql.Tuple) error { oracRows = append(oracRows, r); return nil },
		gsql.Options{DisableTwoLevel: true})
	soakFeed(t, events, orac)

	wantRolls := uint64(cfg.Duration/3600) - 2
	if out.rolls < wantRolls {
		t.Fatalf("subject rolled %d times over %v s, want >= %d", out.rolls, cfg.Duration, wantRolls)
	}
	if out.trips != 0 {
		t.Fatalf("sentinel tripped %d times under hourly rollover, want 0", out.trips)
	}
	if out.crashes == 0 || out.probes == 0 {
		t.Fatalf("chaos tape exercised %d crashes and %d corrupt probes; want both > 0", out.crashes, out.probes)
	}
	subj, orc := soakLastRows(subjRows, soakAggCols), soakLastRows(oracRows, soakAggCols)
	if len(subj) < 8 {
		t.Fatalf("only %d groups emitted; soak too small to be meaningful", len(subj))
	}
	soakCompare(t, subj, orc)
}

// --- subtest B: the overflow the rollover exists to prevent --------------

// TestSoakOverflowPin demonstrates the failure mode: a UDAF fed
// caller-computed linear-domain weights (exp(t·alpha) in the query) loses
// its rows partway through the stream — once exp overflows, every weight is
// +Inf, which the sketch refuses, so its buckets go empty — while the
// epoch-aware fd* family stays finite and populated over the same tape. In monitor-only mode the sentinel counts
// the pressure crossing without rolling; with the supervisor enabled the
// landmark rolls hourly and the sentinel never fires.
func TestSoakOverflowPin(t *testing.T) {
	// exp(t/2048) overflows float64 near t = 1.45M s (day ~16.8 of 30);
	// under -short a coarser alpha overflows within the two-day tape.
	days, div := 30, 2048.0
	if testing.Short() {
		days, div = 2, 64.0
	}
	alpha := 1 / div
	events := faultinject.SoakSchedule(faultinject.SoakConfig{
		Seed: 3, Duration: float64(days) * 86400, MeanGap: 600, Keys: 16,
	})
	m := decay.NewForward(decay.NewExp(alpha), 0)
	e := soakEngine(t, m)
	query := `select tb, sshh(destPort, exp(ftime/` + strconv.FormatFloat(div, 'f', -1, 64) + `)),
	    fdhh(destPort, ftime), fdcount(ftime)
	  from TCP group by time/86400 as tb`
	st, err := e.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}

	run := func(epoch *gsql.EpochConfig) (map[string]gsql.Tuple, gsql.RuntimeStats) {
		var rows []gsql.Tuple
		r := st.Start(func(row gsql.Tuple) error { rows = append(rows, row); return nil },
			gsql.Options{Epoch: epoch})
		var stats gsql.RuntimeStats
		for i, ev := range events {
			if ev.Op != faultinject.SoakTuple {
				continue
			}
			if err := r.Push(soakTuple(ev)); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
		stats = r.RuntimeStats()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return soakLastRows(rows, 3), stats
	}

	// Monitor-only: the sentinel observes the overflow pressure but must not
	// intervene, and the linear-domain sketch demonstrably degrades.
	rows, stats := run(&gsql.EpochConfig{Model: m, MonitorOnly: true, TimeColumn: "ftime"})
	if stats.SentinelTrips == 0 || stats.EpochRollovers != 0 {
		t.Fatalf("monitor-only: trips=%d rolls=%d, want trips>0 rolls=0", stats.SentinelTrips, stats.EpochRollovers)
	}
	overflowed := false
	for _, row := range rows {
		s := row[len(row)-3].S  // sshh column
		fd := row[len(row)-2].S // fdhh column stays finite throughout
		if strings.Contains(s, "Inf") || strings.Contains(s, "NaN") || (s == "" && fd != "") {
			overflowed = true
		}
		if strings.Contains(fd, "Inf") || strings.Contains(fd, "NaN") {
			t.Fatalf("fdhh went non-finite: %q", fd)
		}
	}
	if !overflowed {
		t.Fatal("linear-domain sshh never overflowed; the pin lost its point")
	}

	// Supervisor enabled: hourly rolls keep the pressure far below the
	// sentinel, and the fd* surface stays finite and healthy.
	rows, stats = run(&gsql.EpochConfig{Model: m, Every: 3600, TimeColumn: "ftime"})
	if stats.EpochRollovers == 0 || stats.SentinelTrips != 0 {
		t.Fatalf("rolling: trips=%d rolls=%d, want trips=0 rolls>0", stats.SentinelTrips, stats.EpochRollovers)
	}
	for k, row := range rows {
		c := row[len(row)-1]
		if c.T != gsql.TFloat || math.IsNaN(c.F) || math.IsInf(c.F, 0) || c.F <= 0 {
			t.Fatalf("group %q: fdcount = %v under rollover, want finite positive", k, c)
		}
	}
}

// --- subtest C: mid-epoch checkpoint equality ----------------------------

// TestSoakMidEpochRestore interrupts a rolling run strictly inside an epoch
// and verifies the restored run finishes in exactly the state of an
// uninterrupted one.
func TestSoakMidEpochRestore(t *testing.T) {
	events := faultinject.SoakSchedule(faultinject.SoakConfig{
		Seed: 4, Duration: 6 * 3600, MeanGap: 60, Keys: 16,
	})
	cut := len(events) * 3 / 5
	for int64(events[cut].T)%3600 == 0 { // insist on a mid-epoch cut point
		cut++
	}
	m := decay.NewForward(decay.NewExp(math.Exp2(-10)), 0)
	e := soakEngine(t, m)
	st, err := e.Prepare(soakQuery)
	if err != nil {
		t.Fatal(err)
	}
	epoch := func() *gsql.EpochConfig {
		return &gsql.EpochConfig{Model: m, Every: 3600, TimeColumn: "ftime"}
	}

	t.Run("serial", func(t *testing.T) {
		opts := func() gsql.Options {
			return gsql.Options{DisableTwoLevel: true, Epoch: epoch()}
		}
		var fullRows []gsql.Tuple
		full := st.Start(func(r gsql.Tuple) error { fullRows = append(fullRows, r); return nil }, opts())
		soakFeed(t, events, full)

		var rows []gsql.Tuple
		sink := func(r gsql.Tuple) error { rows = append(rows, r); return nil }
		r1 := st.Start(sink, opts())
		for _, ev := range events[:cut] {
			if ev.Op == faultinject.SoakTuple {
				if err := r1.Push(soakTuple(ev)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ck, err := r1.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if r1.RuntimeStats().EpochRollovers == 0 {
			t.Fatal("checkpoint predates the first rollover; cut too early")
		}
		r2, err := st.Restore(ck, sink, opts())
		if err != nil {
			t.Fatal(err)
		}
		soakFeed(t, events[cut:], r2)
		if r2.RuntimeStats().EpochRollovers == 0 {
			t.Fatal("restored run never rolled; supervisor state was not reinstated")
		}
		soakCompareExact(t, soakLastRows(rows, soakAggCols), soakLastRows(fullRows, soakAggCols))
	})
}

// soakCompareExact demands bit-identity on every column: checkpoint-restore
// must be perfectly transparent.
func soakCompareExact(t *testing.T, subj, orac map[string]gsql.Tuple) {
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
			if !soakBitEqual(sr[i], or[i]) {
				t.Fatalf("group %q column %d: subject %v, oracle %v", k, i, sr[i], or[i])
			}
		}
	}
}

// --- subtest E: samplers roll exactly ------------------------------------

// TestSoakSamplersRollExactly covers the serial-only forward samplers
// (excluded from the chaos soak because they are deliberately not
// checkpointable): a rolling run must render exactly the samples of a
// never-rolling run, since the log-domain key rebase preserves every
// priority comparison.
func TestSoakSamplersRollExactly(t *testing.T) {
	events := faultinject.SoakSchedule(faultinject.SoakConfig{
		Seed: 6, Duration: 8 * 3600, MeanGap: 120, Keys: 16,
	})
	m := decay.NewForward(decay.NewExp(math.Exp2(-10)), 0)
	e := soakEngine(t, m)
	st, err := e.Prepare(`select tb, fdprisamp(len, ftime), fdwrsamp(len, ftime)
	  from TCP group by time/86400 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(epoch *gsql.EpochConfig) map[string]gsql.Tuple {
		var rows []gsql.Tuple
		r := st.Start(func(row gsql.Tuple) error { rows = append(rows, row); return nil },
			gsql.Options{Epoch: epoch})
		soakFeed(t, events, r)
		return soakLastRows(rows, 2)
	}
	subj := run(&gsql.EpochConfig{Model: m, Every: 3600, TimeColumn: "ftime"})
	orac := run(nil)
	soakCompareExact(t, subj, orac)
}
