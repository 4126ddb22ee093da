package e2ebench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/netgen"
	"forwarddecay/server"
)

// check tallies what a run attempted and what failed: rows expected, frames
// sent, attaches and subscribes on one side; rows missing or different,
// and every breached guard, on the other.
type check struct {
	attempted int64
	failed    int64
	notes     []string
}

func (c *check) fail(n int64, format string, args ...any) {
	c.failed += n
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// verify checks everything the pipe delivered, closes it, and returns the
// tally. It is the only place outputs are judged.
func (h *harness) verify(t *target) *check {
	c := &check{}
	switch p := t.pipe.(type) {
	case *servePipe:
		h.verifyServe(p, t.laps, c)
	case *enginePipe:
		h.verifyEngine(p, t.laps, c)
	}
	return c
}

// replay feeds the frames of the first laps laps, in order, to fn.
func (h *harness) replay(laps int, fn func(frame int, pkts []netgen.Packet) error) error {
	var buf []netgen.Packet
	for lap := 0; lap < laps; lap++ {
		for f := 0; f < h.tape.frames(); f++ {
			buf = h.tape.shifted(buf, f, lap)
			if err := fn(lap*h.tape.frames()+f, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyServe compares every PolicyBlock stream, bit for bit, with an
// uninterrupted in-process Statement.Start run of the same query over the
// same frames, and checks the service-level guards.
func (h *harness) verifyServe(p *servePipe, laps int, c *check) {
	c.attempted += int64(laps*h.tape.frames() + len(h.qs) + len(p.subs))

	e, err := newEngine()
	if err != nil {
		c.fail(1, "oracle: %v", err)
		return
	}
	batch, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		c.fail(1, "oracle: %v", err)
		return
	}
	oracle := map[int]*stream{} // by catalog index
	var runs []*gsql.Run
	for _, s := range p.subs {
		if s.kind != subBlock {
			continue
		}
		st, err := e.Prepare(h.qs[s.q].text)
		if err != nil {
			c.fail(1, "oracle: %v", err)
			return
		}
		o := &stream{q: s.q}
		oracle[s.q] = o
		runs = append(runs, st.Start(func(t gsql.Tuple) error {
			o.row(t, 0, time.Time{}, time.Time{}, -1)
			return nil
		}, gsql.Options{}))
	}
	// The runs are left open, like the service's: the last bucket of the
	// last lap stays unflushed on both sides.
	err = h.replay(laps, func(_ int, pkts []netgen.Packet) error {
		netgen.FillBatch(batch, pkts)
		for _, r := range runs {
			if _, err := r.PushBatch(batch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		c.fail(1, "oracle: %v", err)
		return
	}

	// Every frame is acked, so every expected row is in a ring; give the
	// block subscribers a bounded time to drain them.
	deadline := time.Now().Add(deliveryWait)
	for _, s := range p.subs {
		if o := oracle[s.q]; o != nil {
			for s.recv.Load() < o.recv.Load() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	mode := p.svc.Mode()
	counters := p.svc.Counters().Snapshot()
	if err := p.close(); err != nil {
		c.fail(1, "shutdown: %v", err)
	}

	for _, s := range p.subs {
		o := oracle[s.q]
		if o == nil {
			continue
		}
		want := int64(o.recv.Load())
		c.attempted += want
		if want == 0 {
			c.fail(1, "query %d emitted no rows", s.q)
		}
		if s.err != nil {
			c.fail(1, "query %d: subscription ended: %v", s.q, s.err)
		}
		if bad := diffClosures(o.closures, s.closures); bad > 0 {
			c.fail(bad, "query %d: %d of %d rows missing or not bit-identical to the oracle (got %d)",
				s.q, bad, want, s.recv.Load())
		}
	}
	// Unsubscribed queries are checked through the service's own row
	// counter: each must have emitted exactly what its oracle twin did.
	var wantEmitted uint64
	for _, q := range h.qs {
		if o := oracle[q.like]; o != nil {
			wantEmitted += o.recv.Load()
		}
	}
	if got := counters["server_rows_emitted"]; got != wantEmitted {
		c.fail(1, "server_rows_emitted = %d, the oracle expects %d over the whole catalog", got, wantEmitted)
	}
	if mode != server.ModeHealthy {
		c.fail(1, "service mode %v at the end of the run", mode)
	}
	if n := counters["server_restarts"]; n != 0 {
		c.fail(int64(n), "server_restarts = %d", n)
	}
	if p.reconnects != 0 || p.resent != 0 {
		c.fail(int64(p.reconnects+p.resent), "dialer reconnected %d times, resent %d frames", p.reconnects, p.resent)
	}
}

// diffClosures counts the rows of want that got does not reproduce: a
// closure matches when tb, row count and chained row hash all agree.
func diffClosures(want, got []closure) (bad int64) {
	for i, w := range want {
		if i >= len(got) || got[i].tb != w.tb || got[i].n != w.n || got[i].hash != w.hash {
			bad += int64(w.n)
		}
	}
	for _, g := range got[min(len(got), len(want)):] {
		bad += int64(g.n)
	}
	return bad
}

// flushRec is one group of one flush of the reference tumbling-bucket
// simulation: the packets folded into bucket tb when the frame with global
// index frame closed it. Late packets (§VI-B) form a second group with an
// already-closed tb, flushed as a supplementary row next time.
type flushRec struct {
	frame int
	tb    int64
	pkts  []netgen.Packet
}

// verifyEngine checks the UDAF workload against the paper's guarantees,
// computed exactly from the tape rather than from a second implementation:
// Thm. 1 exactness for fdcount/fdsum/fdavg, Thm. 2 truth ≤ est ≤ truth + εW
// for fdhh, the Thm. 3 rank bound for fdpct, exact undecayed count/sum, and
// one row per query per flushed group for the samplers and the backward
// baselines.
func (h *harness) verifyEngine(p *enginePipe, laps int, c *check) {
	c.attempted += int64(laps*h.tape.frames() + len(h.qs))
	rows := make([]map[[2]int64]gsql.Tuple, len(p.subs)) // by (frame, tb)
	for i, s := range p.subs {
		rows[i] = map[[2]int64]gsql.Tuple{}
		for _, k := range s.kept {
			rows[i][[2]int64{int64(k.frame), k.row[0].I}] = k.row
		}
	}
	var flushed int64
	judge := func(rec flushRec) {
		flushed++
		for i := range p.subs {
			c.attempted++
			row, ok := rows[i][[2]int64{int64(rec.frame), rec.tb}]
			if !ok {
				c.fail(1, "query %d: no row for bucket %d flushed by frame %d", i, rec.tb, rec.frame)
				continue
			}
			if why := judgeUDAF(i, row, rec.pkts); why != "" {
				c.fail(1, "query %d bucket %d: %s", i, rec.tb, why)
			}
		}
	}

	open := map[int64][]netgen.Packet{}
	cur, set := int64(0), false
	h.replay(laps, func(frame int, pkts []netgen.Packet) error {
		for _, pk := range pkts {
			tb := int64(pk.Time) / h.w.BucketSec
			if !set {
				cur, set = tb, true
			} else if tb > cur {
				for b, g := range open {
					judge(flushRec{frame, b, g})
					delete(open, b)
				}
				cur = tb
			}
			open[tb] = append(open[tb], pk)
		}
		return nil
	})
	if flushed == 0 {
		c.fail(1, "no bucket closed")
	}
	for i, s := range p.subs {
		if got := int64(len(s.kept)); got != flushed {
			c.fail(abs64(got-flushed), "query %d emitted %d rows, the reference flushed %d groups", i, got, flushed)
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// judgeUDAF checks one output row of udafQueries[q] against the packets of
// its group; it returns "" or the reason the row is wrong.
func judgeUDAF(q int, row gsql.Tuple, pkts []netgen.Packet) string {
	const rel = 1e-9
	near := func(got, want float64) bool { return math.Abs(got-want) <= rel*math.Max(math.Abs(want), 1) }
	tmax := math.Inf(-1)
	for _, p := range pkts {
		tmax = math.Max(tmax, p.Time)
	}
	// Exponential forward decay at query time tmax is backward decay:
	// w = exp(-α(tmax - t)), whatever the landmark.
	wt := func(p netgen.Packet) float64 { return math.Exp(-udafAlpha * (tmax - p.Time)) }
	var W, S float64
	for _, p := range pkts {
		W += wt(p)
		S += wt(p) * float64(p.Len)
	}
	switch q {
	case 0: // fdcount, fdsum, fdavg — Thm. 1
		if !near(row[1].F, W) || !near(row[2].F, S) || !near(row[3].F, S/W) {
			return fmt.Sprintf("decayed count/sum/avg %g/%g/%g, exact %g/%g/%g", row[1].F, row[2].F, row[3].F, W, S, S/W)
		}
	case 1: // fdhh — Thm. 2
		truth := map[uint64]float64{}
		for _, p := range pkts {
			truth[uint64(p.DstIP)] += wt(p)
		}
		reported := map[uint64]bool{}
		for _, part := range strings.Split(row[1].S, ",") {
			if part == "" {
				continue
			}
			ks, vs, _ := strings.Cut(part, ":")
			k, err1 := strconv.ParseUint(ks, 10, 64)
			est, err2 := strconv.ParseFloat(vs, 64)
			if err1 != nil || err2 != nil {
				return "unparsable heavy-hitter list " + row[1].S
			}
			reported[k] = true
			tol := 1e-5 * math.Max(est, 1) // the list is rendered to 6 digits
			if est < truth[k]-tol || est > truth[k]+udafEpsilon*W+tol {
				return fmt.Sprintf("key %d estimate %g outside [%g, %g]", k, est, truth[k], truth[k]+udafEpsilon*W)
			}
		}
		for k, v := range truth {
			if v > udafPhi*W*(1+1e-5) && !reported[k] {
				return fmt.Sprintf("key %d with decayed count %g ≥ φW = %g not reported", k, v, udafPhi*W)
			}
		}
	case 2: // fdpct — Thm. 3: the answer's decayed rank is within εW of φW
		v := uint64(row[1].I)
		var below, upto float64
		for _, p := range pkts {
			if uint64(p.Len) < v {
				below += wt(p)
			}
			if uint64(p.Len) <= v {
				upto += wt(p)
			}
		}
		if below > (udafQPhi+udafEpsilon)*W*(1+rel) || upto < (udafQPhi-udafEpsilon)*W*(1-rel) {
			return fmt.Sprintf("quantile %d spans decayed ranks [%g, %g] of %g, outside φ±ε", v, below/W, upto/W, W)
		}
	case 5: // undecayed count, sum
		var sum int64
		for _, p := range pkts {
			sum += int64(p.Len)
		}
		if row[1].I != int64(len(pkts)) || row[2].I != sum {
			return fmt.Sprintf("count/sum %d/%d, exact %d/%d", row[1].I, row[2].I, len(pkts), sum)
		}
	}
	return ""
}
