package e2ebench

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/metrics"
	"forwarddecay/netgen"
	"forwarddecay/sample"
	"forwarddecay/sketch"
	"forwarddecay/window"
)

// Layer replays measure each layer from outside, single-threaded, over the
// same frames the end-to-end run sent: a call into the layer's public
// function in a loop, one untimed warm-up lap, a collection, then layerLaps
// timed laps whose median is reported. They run on every workload's tape, so
// every per-layer metric is a measurement everywhere; which end-to-end
// metric each should move, and on which workload, is in README.md.
const (
	layerTuples = 1 << 15 // tape prefix the in-process replays loop over
	layerLaps   = 5
	socketLaps  = 2 // laps of the socket-level differential runs (whole tape)
)

// nsPerTuple times lap(l) for l = 1..layerLaps after an untimed lap(0) and
// returns the median nanoseconds per tuple.
func nsPerTuple(tuples int, lap func(l int) error) (float64, error) {
	if err := lap(0); err != nil {
		return 0, err
	}
	runtime.GC()
	var ns []float64
	for l := 1; l <= layerLaps; l++ {
		start := time.Now()
		if err := lap(l); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(start))/float64(tuples))
	}
	return median(ns), nil
}

// eachFrame calls fn with every frame of lap l of the tape.
func (t *tape) eachFrame(buf *[]netgen.Packet, l int, fn func([]netgen.Packet) error) error {
	for f := 0; f < t.frames(); f++ {
		*buf = t.shifted(*buf, f, l)
		if err := fn(*buf); err != nil {
			return err
		}
	}
	return nil
}

func nopSink(gsql.Tuple) error { return nil }

// nopBatchSink is the ingest sink that does nothing: what remains is the
// dialer → socket → listener → ack loop itself.
type nopBatchSink struct{}

func (nopBatchSink) Push(gsql.Tuple) error              { return nil }
func (nopBatchSink) Heartbeat(gsql.Value) error         { return nil }
func (nopBatchSink) PushBatch(*gsql.Batch) (int, error) { return 0, nil }

// nullPipe swallows frames: driving it times the generator alone.
type nullPipe struct{}

func (nullPipe) begin(uint64) error                         { return nil }
func (nullPipe) send([]netgen.Packet, time.Time, int) error { return nil }
func (nullPipe) end() error                                 { return nil }
func (nullPipe) setPlan(*pacedPlan)                         {}
func (nullPipe) streams() []*stream                         { return nil }
func (nullPipe) close() error                               { return nil }

// loopPipe is a bare ingest.Listener with a no-op sink and no ApplyLog.
type loopPipe struct {
	dialFeed
	l *ingest.Listener
}

func (p *loopPipe) setPlan(*pacedPlan) {}
func (p *loopPipe) streams() []*stream { return nil }
func (p *loopPipe) close() error       { return p.l.Shutdown(5 * time.Second) }

// lapNs drives socketLaps closed-loop laps (after a warm-up) and returns the
// median wall nanoseconds per tuple.
func (h *harness) lapNs(p pipe) (float64, error) {
	t := &target{pipe: p}
	if _, err := h.drive(t, 1, 0); err != nil {
		return 0, err
	}
	runtime.GC()
	var ns []float64
	for i := 0; i < socketLaps; i++ {
		st, err := h.drive(t, 1, 0)
		if err != nil {
			return 0, err
		}
		ns = append(ns, float64(st.wall)/float64(st.tuples))
	}
	return median(ns), nil
}

// layers runs every replay and appends the per-layer metrics to r.
func (h *harness) layers(dir string, r *Result, e *servedStats) error {
	lt := h.tape.prefix(int(layerTuples * h.o.tapeScale))
	n := len(lt.pkts)
	var buf []netgen.Packet
	batch, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		return err
	}
	// timeFrames is the common shape: fn over every frame of the prefix.
	timeFrames := func(fn func([]netgen.Packet) error) (float64, error) {
		return nsPerTuple(n, func(l int) error { return lt.eachFrame(&buf, l, fn) })
	}
	// timeBatches is the same with each frame loaded into the batch first;
	// the load is ingest.fill_ns_per_tuple and is subtracted by nobody — it is
	// part of what the engine's batch entry points cost the server too.
	timeBatches := func(fn func(*gsql.Batch) error) (float64, error) {
		return timeFrames(func(pkts []netgen.Packet) error {
			netgen.FillBatch(batch, pkts)
			return fn(batch)
		})
	}

	// --- ingest: codec and batch fill ------------------------------------
	var wire []byte
	var wireBytes int
	encode, err := timeFrames(func(pkts []netgen.Packet) error {
		wire = ingest.AppendData(wire[:0], 1, pkts)
		wireBytes = len(wire)
		return nil
	})
	if err != nil {
		return err
	}
	decode, err := timeFrames(func(pkts []netgen.Packet) error {
		// Encoding inside the timed loop would bill the encoder to the
		// decoder, so every frame decodes the same sealed buffer.
		f, _, err := ingest.DecodeFrame(wire, 0)
		ingest.RecycleFrame(f)
		return err
	})
	if err != nil {
		return err
	}
	fill, err := timeFrames(func(pkts []netgen.Packet) error {
		netgen.FillBatch(batch, pkts)
		return nil
	})
	if err != nil {
		return err
	}
	r.add("ingest.encode_ns_per_tuple", encode, 0, layerLaps)
	r.add("ingest.decode_ns_per_tuple", decode, 0, layerLaps)
	r.add("ingest.fill_ns_per_tuple", fill, 0, layerLaps)
	r.add("ingest.wire_bytes_per_tuple", float64(wireBytes)/float64(h.tape.batch), 0, 1)

	// --- socket-level differential runs (whole tape) ---------------------
	gen, err := h.lapNs(nullPipe{})
	if err != nil {
		return err
	}
	lp := &loopPipe{dialFeed: dialFeed{path: filepath.Join(dir, "loop.sock"), batch: h.tape.batch}}
	if lp.l, err = ingest.Listen("unix", lp.path, ingest.Config{Sink: nopBatchSink{}}); err != nil {
		return err
	}
	loop, err := h.lapNs(lp)
	if cerr := lp.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ingest loop: %w", err)
	}
	// The bare service: socket, WAL and checkpoints, no queries.
	bare, err := newServePipe(h.w, filepath.Join(dir, "bare"), nil, tracer{})
	if err != nil {
		return err
	}
	empty, err := h.lapNs(bare)
	if cerr := bare.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("bare service: %w", err)
	}
	// The full catalog with nobody subscribed: what subscribers cost is the
	// difference to the end-to-end laps.
	silent := make([]query, len(h.qs))
	for i, q := range h.qs {
		silent[i] = query{text: q.text}
	}
	sp, err := h.setUp(filepath.Join(dir, "silent"), silent)
	if err != nil {
		return err
	}
	quiet, err := h.lapNs(sp)
	if cerr := sp.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("silent catalog: %w", err)
	}
	total := 1e9 / e.tuplesPerS
	tuplesSent := float64(e.laps * len(h.tape.pkts))
	r.add("ingest.loop_ns_per_tuple", loop, 0, socketLaps)
	r.add("ingest.send_wait_share", e.sendShare, 0, tracedLaps)
	r.add("ingest.frames_resent", e.framesResent, 0, 1)
	r.add("server.empty_ns_per_tuple", empty, 0, socketLaps)
	r.add("server.wal_ns_per_tuple", empty-loop, 0, socketLaps)
	r.add("server.checkpoints", e.checkpoints, 0, 1)
	r.add("server.state_bytes", e.stateBytes, 0, 1)
	r.add("server.rows_per_tuple", e.rowsEmitted/tuplesSent, 0, 1)
	r.add("server.sub_ns_per_row", (total-quiet)*tuplesSent/max(e.rowsDelivered, 1), 0, socketLaps)
	r.add("server.shed_share", e.rowsShed/max(e.rowsEmitted, 1), 0, 1)
	r.add("server.gaps_reported", e.gaps, 0, 1)
	r.add("server.restarts", e.restarts, 0, 1)
	r.add("server.emit_first_ms", e.emitFirstMs, 0, e.emitClosures)
	r.add("server.emit_last_ms", e.emitLastMs, 0, e.emitClosures)
	r.add("server.attach_ms_per_query", e.attachMs/float64(len(h.qs)), 0, len(h.qs))

	// --- gsql: the shared runtime over the workload's catalog ------------
	eng, err := newEngine()
	if err != nil {
		return err
	}
	multiNs, err := h.multiLayers(eng, r, n, timeFrames, timeBatches)
	if err != nil {
		return err
	}
	r.add("server.residual_ns_per_tuple", total-multiNs-empty, 0, 1)
	r.add("server.ewma_ratio", e.ewmaNs/multiNs, 0, 1)
	if err := h.soloLayers(eng, r, multiNs, timeBatches); err != nil {
		return err
	}

	// --- the decayed aggregates themselves, called directly --------------
	if err := directLayers(r, timeFrames); err != nil {
		return err
	}

	r.add("harness.gen_ns_per_tuple", gen, 0, socketLaps)
	r.add("harness.late_share", e.lateShare, 0, 1)
	r.add("harness.trace_overhead", e.traceOverhead, 0, tracedLaps)
	r.add("harness.emit_samples", float64(e.emitSamples), 0, 1)
	r.add("harness.emit_closures", float64(e.emitClosures), 0, 1)
	r.add("emit_p99_ms", e.emitP99Ms, 0, e.emitSamples)
	r.add("failed_share", e.failedShare, 0, 1)
	return nil
}

type frameTimer func(func([]netgen.Packet) error) (float64, error)
type batchTimer func(func(*gsql.Batch) error) (float64, error)

// multiLayers times gsql.MultiRun over the workload's whole catalog with
// no-op sinks — the batch entry point the server uses and the per-tuple one
// it does not — plus attach, checkpoint and restore.
func (h *harness) multiLayers(eng *gsql.Engine, r *Result, lapTuples int,
	timeFrames frameTimer, timeBatches batchTimer) (float64, error) {
	newMulti := func() (*gsql.MultiRun, []*gsql.MultiHandle, time.Duration, error) {
		m, err := gsql.NewMultiRun(eng, "TCP", gsql.Options{})
		if err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		hs := make([]*gsql.MultiHandle, len(h.qs))
		for i, q := range h.qs {
			if hs[i], err = m.Attach(q.text, 0, nopSink); err != nil {
				return nil, nil, 0, fmt.Errorf("multi attach %d: %w", i, err)
			}
		}
		return m, hs, time.Since(start), nil
	}
	m, hs, attach, err := newMulti()
	if err != nil {
		return 0, err
	}
	m0 := mallocs()
	multiNs, err := timeBatches(func(b *gsql.Batch) error {
		_, err := m.PushBatch(b)
		return err
	})
	if err != nil {
		return 0, err
	}
	allocs := float64(mallocs()-m0) / float64((layerLaps+1)*lapTuples)
	ms := m.MultiStats()

	var ckBytes int
	var ckpts [][]byte
	start := time.Now()
	for _, hd := range hs {
		b, err := hd.Checkpoint()
		if err != nil {
			b = nil // samplers and the backward baselines do not checkpoint
		}
		ckpts = append(ckpts, b)
		ckBytes += len(b)
	}
	ckMs := float64(time.Since(start)) / 1e6
	if err := m.CloseAll(); err != nil {
		return 0, err
	}
	var restore time.Duration
	for i, b := range ckpts {
		if b == nil {
			continue
		}
		st, err := eng.Prepare(h.qs[i].text)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := st.Restore(b, nopSink, gsql.Options{}); err != nil {
			return 0, fmt.Errorf("restore %d: %w", i, err)
		}
		restore += time.Since(start)
	}

	ms2, _, _, err := newMulti()
	if err != nil {
		return 0, err
	}
	row := make(gsql.Tuple, 8)
	scalarNs, err := timeFrames(func(pkts []netgen.Packet) error {
		for _, p := range pkts {
			netgen.AppendTuple(row, p)
			if err := ms2.Push(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := ms2.CloseAll(); err != nil {
		return 0, err
	}

	r.add("gsql.multi_ns_per_tuple", multiNs, 0, layerLaps)
	r.add("gsql.allocs_per_tuple", allocs, 0, layerLaps)
	r.add("gsql.classes", float64(ms.Classes), 0, 1)
	r.add("gsql.distinct_exprs", float64(ms.DistinctExprs), 0, 1)
	r.add("gsql.shared_hit_ratio", ms.SharedHitRatio(), 0, 1)
	r.add("gsql.multi_scalar_ns_per_tuple", scalarNs, 0, layerLaps)
	r.add("gsql.attach_us_per_query", float64(attach)/1e3/float64(len(h.qs)), 0, len(h.qs))
	r.add("gsql.checkpoint_ms", ckMs, 0, 1)
	r.add("gsql.checkpoint_bytes", float64(ckBytes), 0, 1)
	r.add("gsql.restore_ms", float64(restore)/1e6, 0, 1)
	return multiNs, nil
}

// catalogPredicate is one predicate class of the serve_catalog shape, timed
// alone as a batch kernel on every workload's tape.
const catalogPredicate = "select tb, count(*) from TCP where dstIP = 167772200 group by time/1 as tb"

// soloLayers times single queries through Run.PushBatch: the compared
// queries of the catalog one by one (what the catalog would cost unshared),
// the first query serial against two shards, the six UDAF queries, and one
// WHERE kernel.
func (h *harness) soloLayers(eng *gsql.Engine, r *Result, multiNs float64, timeBatches batchTimer) error {
	solo := func(text string) (float64, error) {
		st, err := eng.Prepare(text)
		if err != nil {
			return 0, err
		}
		run := st.Start(nopSink, gsql.Options{})
		return timeBatches(func(b *gsql.Batch) error {
			_, err := run.PushBatch(b)
			return err
		})
	}
	// Every catalog's first query is a compared one, so the serial side of
	// the serial-versus-sharded pair below falls out of this loop.
	var sum, first float64
	var sampled int
	for i, q := range h.qs {
		if q.sub != subBlock {
			continue
		}
		ns, err := solo(q.text)
		if err != nil {
			return err
		}
		if i == 0 {
			first = ns
		}
		sum += ns
		sampled++
	}
	st, err := eng.Prepare(h.qs[0].text)
	if err != nil {
		return err
	}
	pr, err := st.StartParallel(nopSink, gsql.ParallelOptions{Shards: 2})
	if err != nil {
		return err
	}
	par, err := timeBatches(func(b *gsql.Batch) error {
		_, err := pr.PushBatch(b)
		return err
	})
	if cerr := pr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("parallel run: %w", err)
	}
	wst, err := eng.Prepare(catalogPredicate)
	if err != nil {
		return err
	}
	pred := wst.BatchPredicate()
	where, err := timeBatches(func(b *gsql.Batch) error {
		_, err := pred(b)
		return err
	})
	if err != nil {
		return err
	}
	// Unsampled queries are taken to cost what the sampled ones do.
	soloAll := sum * float64(len(h.qs)) / float64(sampled)
	r.add("gsql.solo_ns_per_tuple", sum, 0, sampled)
	r.add("gsql.share_gain", soloAll/multiNs, 0, 1)
	r.add("gsql.run_ns_per_tuple", first, 0, layerLaps)
	r.add("gsql.parallel2_ns_per_tuple", par, 0, layerLaps)
	r.add("gsql.parallel2_speedup", first/par, 0, 1)
	r.add("gsql.where_ns_per_tuple", where, 0, layerLaps)

	names := []string{"fdsum", "fdhh", "fdpct", "fdsamp", "bwd", "undecayed"}
	q := make([]float64, len(udafQueries))
	for i, uq := range udafQueries {
		if q[i], err = solo(uq.text); err != nil {
			return err
		}
		r.add("gsql.q_"+names[i]+"_ns_per_tuple", q[i], 0, layerLaps)
	}
	r.add("paper.fwd_over_undecayed", q[0]/q[5], 0, 1)
	r.add("paper.bwd_over_fwd", q[4]/q[1], 0, 1)
	return nil
}

// directLayers calls Observe/Update/Offer on the aggregates, sketches and
// samplers directly with the tape's (DestKey, Time, Len).
func directLayers(r *Result, timeFrames frameTimer) error {
	model := decay.NewForward(decay.NewExp(udafAlpha), 0)
	each := func(fn func(netgen.Packet)) func([]netgen.Packet) error {
		return func(pkts []netgen.Packet) error {
			for _, p := range pkts {
				fn(p)
			}
			return nil
		}
	}
	counter := agg.NewCounter(model)
	sum := agg.NewSum(model)
	hh := agg.NewHeavyHitters(model, udafEpsilon)
	qt := agg.NewQuantiles(model, 65536, udafEpsilon)
	dist := agg.NewDistinctExact(model)
	ss := sketch.NewSpaceSaving(udafEpsilon)
	qd := sketch.NewQDigest(65536, udafEpsilon)
	eh := sketch.NewExpHistogram(udafEpsilon, 60)
	pri := sample.NewForwardPriority[uint64](model, 100, 1)
	wrs := sample.NewForwardWRS[uint64](model, 100, 1)
	swhh := window.NewHeavyHitters(60, udafEpsilon)
	var sinkF float64
	cs := metrics.NewCounterSet()
	for _, l := range []struct {
		name string
		fn   func(netgen.Packet)
	}{
		{"agg.counter_ns", func(p netgen.Packet) { counter.Observe(p.Time) }},
		{"agg.sum_ns", func(p netgen.Packet) { sum.Observe(p.Time, float64(p.Len)) }},
		{"agg.hh_ns", func(p netgen.Packet) { hh.Observe(p.DestKey(), p.Time) }},
		{"agg.quantiles_ns", func(p netgen.Packet) { qt.Observe(uint64(p.Len), p.Time) }},
		{"agg.distinct_ns", func(p netgen.Packet) { dist.Observe(p.DestKey(), p.Time) }},
		{"sketch.ss_update_ns", func(p netgen.Packet) { ss.Update(p.DestKey(), 1) }},
		{"sketch.qdigest_update_ns", func(p netgen.Packet) { qd.Update(uint64(p.Len), 1) }},
		{"sketch.eh_update_ns", func(p netgen.Packet) { eh.Insert(p.Time, float64(p.Len)) }},
		{"sample.priority_ns", func(p netgen.Packet) { pri.Observe(p.DestKey(), p.Time) }},
		{"sample.wrs_ns", func(p netgen.Packet) { wrs.Observe(p.DestKey(), p.Time) }},
		{"window.swhh_ns", func(p netgen.Packet) { swhh.Observe(p.DestKey(), p.Time, 1) }},
		{"decay.weight_ns", func(p netgen.Packet) { sinkF += model.LogStaticWeight(p.Time) }},
		{"metrics.counter_add_ns", func(netgen.Packet) { cs.Add("e2ebench_probe", 1) }},
	} {
		ns, err := timeFrames(each(l.fn))
		if err != nil {
			return err
		}
		r.add(l.name, ns, 0, layerLaps)
	}
	directSink = sinkF
	r.add("agg.hh_bytes", float64(hh.SizeBytes()), 0, 1)
	r.add("agg.quantiles_bytes", float64(qt.SizeBytes()), 0, 1)
	return nil
}

// directSink keeps the weight loop's result alive so it is not optimised out.
var directSink float64
