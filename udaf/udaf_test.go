package udaf

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/netgen"
)

func newEngine(t *testing.T, cfg Config) *gsql.Engine {
	t.Helper()
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	if err := RegisterAll(e, cfg); err != nil {
		t.Fatal(err)
	}
	return e
}

// packetTuples generates n packet tuples.
func packetTuples(n int, rate float64, seed uint64) []gsql.Tuple {
	g := netgen.New(netgen.DefaultConfig(rate, seed))
	out := make([]gsql.Tuple, n)
	for i := range out {
		out[i] = netgen.Tuple(g.Next())
	}
	return out
}

func runQuery(t *testing.T, e *gsql.Engine, q string, tuples []gsql.Tuple) []gsql.Tuple {
	t.Helper()
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return execute(t, st, tuples, gsql.Options{})
}

// execute runs st over packet tuples pushed as one batch and collects its
// rows.
func execute(t *testing.T, st *gsql.Statement, tuples []gsql.Tuple, opts gsql.Options) []gsql.Tuple {
	t.Helper()
	var rows []gsql.Tuple
	run := st.Start(func(r gsql.Tuple) error { rows = append(rows, r); return nil }, opts)
	b, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := b.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run.PushBatch(b); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("execute: %v", err)
	}
	return rows
}

// TestPaperSamplingQuery runs the paper's Figure 3 query shape:
// a per-minute priority sample under exponential forward decay, with the
// landmark at the start of each minute, expressed purely in GSQL.
func TestPaperSamplingQuery(t *testing.T) {
	e := newEngine(t, Config{SampleSize: 10})
	tuples := packetTuples(50000, 500, 1)
	rows := runQuery(t, e,
		`select tb, prisamp(srcIP, float(time % 60)) from TCP group by time/60 as tb`,
		tuples)
	if len(rows) < 1 {
		t.Fatal("no output rows")
	}
	// Each row's sample must contain SampleSize items (minutes have
	// thousands of packets).
	got := strings.Split(rows[0][1].S, ",")
	if len(got) != 10 {
		t.Errorf("sample size %d, want 10 (row %v)", len(got), rows[0])
	}
	for _, s := range got {
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			t.Errorf("sample item %q is not an integer", s)
		}
	}
}

func TestSamplingUDAFVariants(t *testing.T) {
	e := newEngine(t, Config{SampleSize: 5})
	tuples := packetTuples(20000, 300, 2)
	for _, q := range []string{
		`select tb, wrsamp(srcIP, float(time % 60)) from TCP group by time/60 as tb`,
		`select tb, ressamp(srcIP) from TCP group by time/60 as tb`,
		`select tb, aggsamp(srcIP) from TCP group by time/60 as tb`,
	} {
		rows := runQuery(t, e, q, tuples)
		if len(rows) == 0 || rows[0][1].S == "" {
			t.Errorf("query %q produced no sample", q)
		}
	}
}

// TestHeavyHitterUDAFsAgree runs the forward (sshh with quadratic weights),
// unary and sliding-window HH UDAFs over the same stream and checks the
// top reported key matches across methods (the dominant destination is
// unambiguous under Zipf skew).
func TestHeavyHitterUDAFsAgree(t *testing.T) {
	e := newEngine(t, Config{Epsilon: 0.01, Phi: 0.05, Window: 60})
	tuples := packetTuples(60000, 1000, 3)
	// Use the first (complete) minute bucket: the final bucket may hold only
	// a moment of traffic, where quadratic forward weights are still ~0.
	topOf := func(q string) string {
		rows := runQuery(t, e, q, tuples)
		if len(rows) == 0 || rows[0][1].S == "" {
			t.Fatalf("query %q: no heavy hitters", q)
		}
		first := strings.SplitN(rows[0][1].S, ",", 2)[0]
		return strings.SplitN(first, ":", 2)[0]
	}
	fwd := topOf(`select tb, sshh(dstIP, float((time%60)*(time%60))) from TCP group by time/60 as tb`)
	una := topOf(`select tb, unaryhh(dstIP) from TCP group by time/60 as tb`)
	sw := topOf(`select tb, swhh(dstIP, ftime, float(1)) from TCP group by time/60 as tb`)
	if fwd != una || una != sw {
		t.Errorf("top heavy hitter disagrees: fwd=%s unary=%s sw=%s", fwd, una, sw)
	}
}

func TestEHSumUDAF(t *testing.T) {
	e := newEngine(t, Config{Epsilon: 0.05, Window: 60, EHDecay: decay.NewAgePoly(1)})
	tuples := packetTuples(30000, 500, 4)
	rows := runQuery(t, e, `select tb, ehsum(ftime, float(len)) from TCP group by time/60 as tb`, tuples)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		v := r[1].AsFloat()
		if v <= 0 {
			t.Errorf("ehsum row %v not positive", r)
		}
	}
}

func TestFDQuantUDAF(t *testing.T) {
	e := newEngine(t, Config{Epsilon: 0.02, QuantileU: 2048, QuantilePhi: 0.5})
	tuples := packetTuples(30000, 500, 5)
	rows := runQuery(t, e, `select tb, fdquant(len, 2*ln(time % 60 + 1)) from TCP group by time/60 as tb`, tuples)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	med := rows[0][1].AsInt()
	// Packet lengths are 40–1500; a median outside that is wrong.
	if med < 40 || med > 1500 {
		t.Errorf("median packet length %d outside [40,1500]", med)
	}
}

// TestSSHHMergeableTwoLevel verifies the weighted SpaceSaving UDAF supports
// the two-level split and produces equivalent heavy hitters either way.
func TestSSHHMergeableTwoLevel(t *testing.T) {
	tuples := packetTuples(40000, 800, 6)
	q := `select tb, sshh(dstIP, float(1)) from TCP group by time/60 as tb`

	topK := func(opts gsql.Options) string {
		e := newEngine(t, Config{Epsilon: 0.005, Phi: 0.05})
		st, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(st.Describe(), "mergeable=true") {
			t.Fatal("sshh must be mergeable")
		}
		rows := execute(t, st, tuples, opts)
		// Compare top-3 keys only: merge order may perturb deep ties.
		parts := strings.Split(rows[0][1].S, ",")
		if len(parts) > 3 {
			parts = parts[:3]
		}
		for i := range parts {
			parts[i] = strings.SplitN(parts[i], ":", 2)[0]
		}
		return strings.Join(parts, ",")
	}
	a := topK(gsql.Options{LowLevelSlots: 64})
	b := topK(gsql.Options{DisableTwoLevel: true})
	if a != b {
		t.Errorf("two-level top-3 %q != single-level %q", a, b)
	}
}

// TestFDDistinctUDAF checks the dominance-norm UDAF against the exact
// decayed distinct count on a per-minute query.
func TestFDDistinctUDAF(t *testing.T) {
	e := newEngine(t, Config{})
	tuples := packetTuples(40000, 800, 9)
	rows := runQuery(t, e,
		`select tb, fddistinct(dstIP, 2*ln(float(time % 60)+1)) from TCP group by time/60 as tb`,
		tuples)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Exact dominance norm for the first minute.
	maxW := map[int64]float64{}
	for _, tu := range tuples {
		if tu[0].AsInt()/60 != rows[0][0].AsInt() {
			continue
		}
		n := float64(tu[0].AsInt()%60) + 1
		w := n * n
		if w > maxW[tu[3].AsInt()] {
			maxW[tu[3].AsInt()] = w
		}
	}
	var want float64
	for _, w := range maxW {
		want += w
	}
	got := rows[0][1].AsFloat()
	if got < 0.7*want || got > 1.3*want {
		t.Errorf("fddistinct = %v, want %v ± 30%%", got, want)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SampleSize != 100 || c.Epsilon != 0.01 || c.Window != 60 ||
		c.EHDecay == nil || c.Phi != 0.01 || c.Seed != 1 ||
		c.QuantileU != 65536 || c.QuantilePhi != 0.5 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

// TestHeavyHitterUDAFsIgnoreNaNWeight: a row whose weight evaluates to NaN
// (exp(800) − exp(800) = +Inf − +Inf) leaves sshh and fdhh exactly as the
// tape without that row leaves them.
func TestHeavyHitterUDAFsIgnoreNaNWeight(t *testing.T) {
	var tape []gsql.Tuple
	for i := int64(0); i < 400; i++ {
		tape = append(tape, gsql.Tuple{gsql.Int(i / 4), gsql.Float(float64(i) / 4), gsql.Int(1),
			gsql.Int(i*i%7 + 1), gsql.Int(4242), gsql.Int(80), gsql.Int(6), gsql.Int(40 + i%600)})
	}
	poisoned := append(append(append([]gsql.Tuple(nil), tape[:201]...), gsql.Tuple{gsql.Int(50), gsql.Float(50.1),
		gsql.Int(1), gsql.Int(3), gsql.Int(4242), gsql.Int(80), gsql.Int(6), gsql.Int(800)}), tape[201:]...)
	const nan = `(exp(float(len)) - exp(float(len)))`
	q := `select tb, sshh(dstIP, float(len) + ` + nan + `), fdhh(dstIP, ftime + ` + nan + `)
	      from TCP group by time/60 as tb`
	e := newEngine(t, Config{Epsilon: 0.01, Phi: 0.05, Decay: decay.NewForward(decay.NewExp(0.01), 0)})
	st, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	want, got := execute(t, st, tape, gsql.Options{}), execute(t, st, poisoned, gsql.Options{})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("NaN-weight row changed the output:\n got %v\nwant %v", got, want)
	}
}
