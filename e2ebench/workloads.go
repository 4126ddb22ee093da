package e2ebench

import (
	"fmt"

	"forwarddecay/decay"
	"forwarddecay/udaf"
)

// subKind says who reads a standing query's result stream.
type subKind uint8

const (
	subNone subKind = iota
	// subBlock: a PolicyBlock subscriber, compared row for row with the oracle.
	subBlock
	// subDrop: a PolicyDropOldest subscriber; rows may be shed, so it is
	// counted (shed share, gaps) but not compared.
	subDrop
)

type query struct {
	text string
	sub  subKind
	// like is the catalog index of the compared (subBlock) query that must
	// emit exactly as many rows as this one — itself, for a compared query.
	// It is how unsubscribed queries are checked: through the service's row
	// counter.
	like int
}

// Workload is one frozen input shape. Every number here is part of the
// benchmark's definition: changing one starts a new baseline. Lap sizes were
// calibrated once so a closed-loop lap takes about a second on the commit
// that introduced the benchmark; paced rates are about half that commit's
// closed-loop tuples_per_s.
type Workload struct {
	Name string
	Why  string
	// Serve runs the catalog inside a server.Service fed over a unix socket;
	// false runs it on an in-process gsql.Engine with the UDAFs registered.
	Serve bool
	// LapTuples is the tape length: one lap replays it once.
	LapTuples int
	// EventRate is netgen's packets per event-second; with BucketSec it fixes
	// how many tuples (and groups) one time bucket holds.
	EventRate  float64
	OutOfOrder int
	BucketSec  int64
	// BatchSize is packets per ingest frame (or per PushBatch in-process).
	BatchSize int
	// PacedRate is the open-loop schedule in tuples per wall-second.
	PacedRate float64
	// Service settings (Serve only).
	CheckpointEvery uint64
	ResultLog       int

	catalog func(t *tape) ([]query, error)
}

// Workloads is the frozen set, in the order the benchmark runs them.
var Workloads = []*Workload{
	{
		Name: "serve_fwd",
		Why: "the paper's Fig. 2 queries (undecayed, quadratic and exponential forward decay, min/max/avg) through the service " +
			"in big frames: expression evaluation, group tables and aggregate folds do the work, wire and WAL are amortised",
		Serve: true, LapTuples: 1 << 18, EventRate: 25000, BucketSec: 1,
		BatchSize: 256, PacedRate: 150000, CheckpointEvery: 1 << 18, ResultLog: 1 << 16,
		catalog: func(*tape) ([]query, error) {
			const by = " from TCP group by time/1 as tb, dstIP, destPort"
			return []query{
				{"select tb, dstIP, destPort, count(*), sum(len)" + by, subBlock, 0},
				{"select tb, dstIP, destPort, sum(float(len)*(time%60)*(time%60))/3600" + by, subBlock, 1},
				{"select tb, dstIP, destPort, sum(float(len)*exp(float(time%60)/10))" + by, subBlock, 2},
				{"select tb, dstIP, min(len), max(len), avg(len) from TCP group by time/1 as tb, dstIP", subBlock, 3},
			}, nil
		},
	},
	{
		Name: "serve_catalog",
		Why: "1000 standing queries in 16 rare predicate classes (one destination each): predicate classes, shared slots and the interner do the work " +
			"and folds almost none; also where set-up (1000 journaled attaches) is large",
		Serve: true, LapTuples: 1 << 20, EventRate: 25000, BucketSec: 1,
		BatchSize: 256, PacedRate: 200000, CheckpointEvery: 1 << 18, ResultLog: 1 << 16,
		catalog: catalogQueries,
	},
	{
		Name: "serve_io",
		Why: "engine nearly idle, small frames, heavy output, frequent checkpoints: per-frame costs (seal, decode, WAL write, ack, " +
			"checkpoint+rotate) and per-row costs (ring, subscriber write, client decode) dominate",
		Serve: true, LapTuples: 192 << 10, EventRate: 10000, BucketSec: 1,
		BatchSize: 16, PacedRate: 90000, CheckpointEvery: 8192, ResultLog: 1024,
		catalog: func(*tape) ([]query, error) {
			const perFlow = "select tb, srcIP, dstIP, srcPort, destPort, count(*) from TCP " +
				"group by time/1 as tb, srcIP, dstIP, srcPort, destPort"
			return []query{
				{"select tb, count(*) from TCP group by time/1 as tb", subBlock, 0},
				{perFlow, subBlock, 1},
				{perFlow, subDrop, 1},
			}, nil
		},
	},
	{
		Name: "engine_udaf",
		Why: "no network, no WAL: the decayed UDAFs (agg, sketch, sample, decay, udaf, window), which the server never registers, " +
			"over an out-of-order tape; every serve layer does nothing",
		LapTuples: 1 << 17, EventRate: 100, OutOfOrder: 64, BucketSec: 60,
		BatchSize: 256, PacedRate: 55000,
		catalog: func(*tape) ([]query, error) { return udafQueries, nil },
	},
}

// udafQueries are the six engine_udaf queries; the layer replays also time
// each one alone (gsql.q_* metrics) on every workload's tape.
var udafQueries = []query{
	{"select tb, fdcount(ftime), fdsum(ftime, float(len)), fdavg(ftime, float(len)) from TCP group by time/60 as tb", subBlock, 0},
	{"select tb, fdhh(dstIP, ftime) from TCP group by time/60 as tb", subBlock, 1},
	{"select tb, fdpct(len, ftime) from TCP group by time/60 as tb", subBlock, 2},
	{"select tb, fdprisamp(len, ftime), fdwrsamp(len, ftime) from TCP group by time/60 as tb", subBlock, 3},
	{"select tb, swhh(dstIP, ftime, float(1)), ehsum(ftime, float(len)) from TCP group by time/60 as tb", subBlock, 4},
	{"select tb, count(*), sum(len) from TCP group by time/60 as tb", subBlock, 5},
}

// udafAlpha and udafEpsilon parameterise the decayed UDAFs; the theorem
// checks in oracle.go use the same values.
const (
	udafAlpha   = 0.1
	udafEpsilon = 0.01
	udafPhi     = 0.01 // udaf.Config's default heavy-hitter threshold
	udafQPhi    = 0.5  // udaf.Config's default quantile
)

func udafConfig() udaf.Config {
	return udaf.Config{Decay: decay.NewForward(decay.NewExp(udafAlpha), 0), Epsilon: udafEpsilon}
}

const (
	catalogSize    = 1000
	catalogClasses = 16
	// catalogSampleStride spaces the subscribed queries through the catalog;
	// it is odd, so the 16 samples fall in 16 different classes.
	catalogSampleStride = 63
	// catalogRank0 is the first class's destination rank: ranks 40–55 carry
	// 0.26–0.18 % of netgen's default Zipf(1.1) traffic each.
	catalogRank0 = 40
	// netgenServerNet is 10.0.0.0: netgen numbers destinations 10.0.0.0 | rank.
	netgenServerNet = 0x0a000000
)

// catalogQueries builds the 1000-query catalog in the shared-heavy shape of
// bench.MultiScaleQuery: 16 predicate classes `dstIP = a`, one per destination
// of popularity rank catalogRank0 … +15. netgen's destinations are Zipfian by
// rank whatever the seed, so each class matches about 0.2 % of any generated
// tape; the tape is checked, and a class outside 0.05–0.5 % is an error, not
// a silent no-row workload (bench.MultiScaleQuery's own `dstIP = 7` matches
// no netgen packet at all). One fixed address per class, rather than
// residues picked per tape, means every query emits exactly one row per
// bucket on every seed: the 1000 result rings then grow in lockstep and
// reallocate at the same laps, instead of moving live_heap_mb by 20 MB at a
// lap that depends on the seed.
func catalogQueries(t *tape) ([]query, error) {
	count := map[uint32]int{}
	for _, p := range t.pkts {
		count[p.DstIP]++
	}
	sampled := make([]int, catalogClasses) // class → its subscribed query
	for k := 0; k < catalogClasses; k++ {
		sampled[k*catalogSampleStride%catalogClasses] = k * catalogSampleStride
	}
	qs := make([]query, catalogSize)
	for i := range qs {
		class := i % catalogClasses
		addr := uint32(netgenServerNet + catalogRank0 + class)
		if share := float64(count[addr]) / float64(len(t.pkts)); share < 0.0005 || share > 0.005 {
			return nil, fmt.Errorf("predicate class dstIP = %d matches %.3f%% of the tape, outside 0.05–0.5%%", addr, 100*share)
		}
		qs[i].text = fmt.Sprintf(
			"select tb, dstIP, count(*), sum(len + %d) from TCP where dstIP = %d group by time/1 as tb, dstIP", i, addr)
		qs[i].like = sampled[class]
	}
	for _, i := range sampled {
		qs[i].sub = subBlock
	}
	return qs, nil
}
