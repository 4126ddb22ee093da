package gsql

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"

	"forwarddecay/internal/codec"
	"forwarddecay/internal/core"
	"forwarddecay/internal/faultinject"
)

// This file implements the sharded parallel runtime: the paper's two-level
// LFTA/HFTA architecture spread across cores instead of across a cheap
// low-level table and an expensive high-level one. N shard workers each run
// an independent low-level executor over a hash partition of the group
// space; on window close (or heartbeat, or Close) every shard's partial
// aggregates are folded into a single high-level result via the existing
// Aggregator.Merge path and emitted exactly as the serial Run would emit
// them.
//
// Routing hashes the evaluated non-temporal group-by values, so every
// logical group lives on exactly one shard and accumulates its tuples in
// arrival order — the merged output is then bit-identical to the serial
// path, including float aggregates and mergeable sketch UDAFs. Queries with
// no non-temporal group columns (global aggregates, purely temporal
// grouping) are routed round-robin instead; their per-group partials are
// combined with Merge, whose float reassociation may differ from serial
// evaluation in the last ulp (and whose sketch merges carry the documented
// additive error bounds).
//
// The runtime is fault-tolerant: shard workers recover panics (a panicking
// shard never deadlocks the drain barrier), an overload policy can shed
// load instead of blocking the producer, and the whole run checkpoints and
// restores through the same format as the serial Run (see checkpoint.go).

// OverloadPolicy selects what Push does when a shard's work queue is full.
type OverloadPolicy uint8

const (
	// OverloadBlock blocks the producer until the shard catches up
	// (backpressure; the default).
	OverloadBlock OverloadPolicy = iota
	// OverloadDropNewest drops the just-filled batch instead of blocking,
	// counting the shed tuples in RuntimeStats. Results then undercount
	// the dropped tuples — the classic load-shedding trade.
	OverloadDropNewest
)

// PanicPolicy selects how a recovered shard panic affects the run.
type PanicPolicy uint8

const (
	// PanicFail surfaces the panic as an error from the window flush and
	// poisons the run (the default). The drain barrier still completes.
	PanicFail PanicPolicy = iota
	// PanicRestart isolates the failure: the panicked shard's partial
	// window state is dropped and — when a checkpoint was taken in the
	// current window — refilled from that checkpoint, the shard restarts
	// clean for the next window, and the run continues. The panic is
	// reported on Errors() and counted in RuntimeStats; the closed
	// window's results may undercount the shard's post-checkpoint tuples.
	PanicRestart
)

// ParallelOptions configure a sharded parallel run.
type ParallelOptions struct {
	// Shards is the number of shard workers (goroutines); default
	// runtime.GOMAXPROCS(0).
	Shards int
	// BatchSize is the number of tuples shipped to a shard per channel send;
	// default 256.
	BatchSize int
	// BufferedBatches is the per-shard channel capacity in batches; the
	// producer blocks (or sheds, per Overload) once a shard falls this far
	// behind. Default 4.
	BufferedBatches int
	// Overload selects blocking backpressure or drop-newest shedding.
	Overload OverloadPolicy
	// OnPanic selects whether a recovered shard panic fails the run or
	// restarts the shard.
	OnPanic PanicPolicy
	// ErrorBuffer is the capacity of the Errors() channel; default 16.
	// When full, further error reports are dropped (the counters still
	// advance).
	ErrorBuffer int
	// Epoch enables the epoch-rollover supervisor, as Options.Epoch does for
	// the serial Run. Rollovers quiesce the shards: pending batches ship
	// first, then every shard applies the landmark shift at the same point
	// of its tuple sequence before any later tuple is stepped.
	Epoch *EpochConfig
}

// withDefaults resolves zero fields to their defaults.
func (o ParallelOptions) withDefaults() ParallelOptions {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.BufferedBatches <= 0 {
		o.BufferedBatches = 4
	}
	if o.ErrorBuffer <= 0 {
		o.ErrorBuffer = 16
	}
	return o
}

// tupleBatch is one unit of work shipped to a shard: n tuples of fixed
// width, stored flat (recycled via each worker's free list). gvals carries
// the coordinator's already-evaluated group values, one run of len(groupFns)
// Values per tuple: the coordinator evaluates every group expression for
// routing anyway, so shards reuse those bits instead of re-running the
// closures (same closures, same inputs — identical results by construction).
// A nil gvals (a batch from a producer that could not evaluate) makes the
// shard evaluate for itself, as it always used to.
type tupleBatch struct {
	vals  []Value
	gvals []Value
	n     int
}

// shardResult is a shard's reply to a drain request: its accumulated
// partial groups (ownership transfers to the coordinator) and its sticky
// error, if any.
type shardResult struct {
	groups map[string]*group
	err    error
}

// shardSnap is a shard's reply to a snapshot request: its partial groups
// serialized as checkpoint entries, taken without disturbing the shard.
type shardSnap struct {
	entries [][]byte
	err     error
}

// shardMsg is the single message type of a shard's work channel: a tuple
// batch, a snapshot request, a drain request, or an epoch (landmark shift)
// request. FIFO channel order guarantees a snapshot, drain or epoch request
// observes every batch sent before it — the epoch barrier that keeps shard
// rollovers aligned with the serial run's tuple interleaving.
type shardMsg struct {
	batch *tupleBatch
	snap  chan shardSnap
	drain chan shardResult
	epoch *epochReq
}

// epochReq asks a shard to roll every partial group onto a new landmark and
// reply when done (nil, or the first shift error).
type epochReq struct {
	newL  float64
	reply chan error
}

// shardWorker is one low-level executor: it owns a partial-group table keyed
// exactly like the serial high-level table and steps tuples into it.
type shardWorker struct {
	idx    int
	p      *plan
	width  int
	work   chan shardMsg
	free   chan *tupleBatch
	done   chan struct{}
	stats  *runtimeCounters
	report func(error)

	groups map[string]*group
	keyBuf []byte
	gv     Tuple
	args   []Value
	tuples uint64
	err    error

	// curL is the landmark newborn groups must be rebased onto after a
	// rollover (or an epoch-stamped restore); landmarkSet gates the shift so
	// unrolled runs pay nothing. It survives drains and shard restarts: the
	// frame outlives any one window's groups.
	curL        float64
	landmarkSet bool
}

// run is the worker goroutine body. Drain requests are always answered —
// even after a batch panicked — so the coordinator's flush barrier can
// never deadlock on a failed shard.
func (w *shardWorker) run() {
	defer close(w.done)
	for msg := range w.work {
		if b := msg.batch; b != nil {
			w.process(b)
			select {
			case w.free <- b:
			default:
			}
		}
		if msg.snap != nil {
			msg.snap <- w.snapshot()
		}
		if msg.epoch != nil {
			msg.epoch.reply <- w.shift(msg.epoch.newL)
		}
		if msg.drain != nil {
			msg.drain <- shardResult{groups: w.groups, err: w.err}
			// The coordinator now owns the groups and the error; the shard
			// restarts clean for the next window.
			w.groups = make(map[string]*group, 256)
			w.err = nil
		}
	}
}

// process steps one batch into the shard's tables, isolating panics: a
// panicking tuple (bad UDAF, poisoned input) marks the shard failed for
// this window but leaves the worker alive and answering drains.
func (w *shardWorker) process(b *tupleBatch) {
	if w.err != nil {
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			w.err = &ShardPanicError{Shard: w.idx, Value: rec, Stack: debug.Stack()}
			w.stats.shardPanics.Add(1)
			w.report(w.err)
		}
	}()
	gw := len(w.p.groupFns)
	for i := 0; i < b.n; i++ {
		t := Tuple(b.vals[i*w.width : (i+1)*w.width])
		var gv Tuple
		haveGV := gw == 0
		if b.gvals != nil {
			gv = Tuple(b.gvals[i*gw : (i+1)*gw])
			haveGV = true
		}
		if err := w.step(t, gv, haveGV); err != nil {
			w.err = err
			return
		}
	}
}

// snapshot serializes the shard's partial groups as checkpoint entries.
// Marshal-time panics (a corrupted UDAF) are isolated like step panics.
func (w *shardWorker) snapshot() (out shardSnap) {
	if w.err != nil {
		return shardSnap{err: w.err}
	}
	defer func() {
		if rec := recover(); rec != nil {
			out = shardSnap{err: &ShardPanicError{Shard: w.idx, Value: rec, Stack: debug.Stack()}}
		}
	}()
	entries := make([][]byte, 0, len(w.groups))
	for _, g := range w.groups {
		eb, err := appendGroupEntry(nil, w.p, g, g.aggs)
		if err != nil {
			return shardSnap{err: err}
		}
		entries = append(entries, eb)
	}
	return shardSnap{entries: entries}
}

// shift rolls every partial group onto a new landmark. A failed shard skips
// the shift (its groups are already condemned, and will be discarded or
// surfaced by the drain per the panic policy); a panic mid-shift marks the
// shard failed the same way a stepping panic does, so a partially shifted
// table can never reach the merge.
func (w *shardWorker) shift(newL float64) (err error) {
	// Track the frame even when this shard's window is already condemned:
	// after the failed groups are drained away, replacements must still be
	// born onto the rolled landmark.
	w.curL, w.landmarkSet = newL, true
	if w.err != nil {
		return nil
	}
	defer func() {
		if rec := recover(); rec != nil {
			w.err = &ShardPanicError{Shard: w.idx, Value: rec, Stack: debug.Stack()}
			w.stats.shardPanics.Add(1)
			w.report(w.err)
			err = nil
		}
	}()
	for _, g := range w.groups {
		if e := shiftAggs(g.aggs, newL); e != nil {
			return e
		}
	}
	return nil
}

// step folds one tuple into the shard's partial-group table. It mirrors the
// serial high-level path: same key encoding, same group-value capture, same
// aggregator stepping. When the coordinator shipped the tuple's evaluated
// group values (haveGV) they are used directly; otherwise the shard
// evaluates the group expressions itself.
func (w *shardWorker) step(t Tuple, gv Tuple, haveGV bool) error {
	if err := faultinject.Hit("gsql.shard.step"); err != nil {
		return err
	}
	w.tuples++
	if !haveGV {
		gv = w.gv
		for i, fn := range w.p.groupFns {
			v, err := fn(t)
			if err != nil {
				return err
			}
			gv[i] = v
		}
	}
	w.keyBuf = w.p.keyAppend(w.keyBuf[:0], gv)
	g := w.groups[string(w.keyBuf)]
	if g == nil {
		aggs := newAggs(w.p)
		if w.landmarkSet {
			if err := shiftAggs(aggs, w.curL); err != nil {
				return err
			}
		}
		g = &group{gv: append(Tuple(nil), gv...), aggs: aggs}
		w.groups[string(w.keyBuf)] = g
	}
	var err error
	w.args, err = stepAggs(w.p, g.aggs, t, w.args)
	return err
}

// stepAggs folds tuple t into each aggregator through the scalar argument
// closures, reusing args as the argument scratch buffer; the (possibly
// grown) buffer is returned for the caller to keep.
func stepAggs(p *plan, aggs []Aggregator, t Tuple, args []Value) ([]Value, error) {
	for i, a := range aggs {
		args = args[:0]
		for _, fn := range p.aggArgFns[i] {
			v, err := fn(t)
			if err != nil {
				return args, err
			}
			args = append(args, v)
		}
		if err := a.Step(args); err != nil {
			return args, err
		}
	}
	return args, nil
}

// ckptEntry is one serialized partial group retained by the producer for
// shard restart: the shard that held it and its checkpoint-entry bytes.
type ckptEntry struct {
	shard int
	data  []byte
}

// ParallelRun executes one prepared statement across shard workers: Push
// tuples from a single producer goroutine, then Close. Output rows are
// delivered to the sink — on the producer's goroutine — as time buckets
// close, each bucket's groups in the same deterministic (key-sorted) order
// as the serial Run.
//
// A ParallelRun is single-use. Push, Heartbeat, Checkpoint, RuntimeStats
// and Close must be called from one goroutine; Close must be called to
// release the shard workers. Errors() may be consumed from any goroutine.
type ParallelRun struct {
	p    *plan
	sink func(Tuple) error
	opts ParallelOptions

	workers []*shardWorker
	pending []*tupleBatch // per-shard batch being filled
	width   int
	hasKey  bool // at least one non-temporal group column → hash routing
	rr      int  // round-robin cursor when !hasKey

	bucketSet bool
	bucket    Value

	ep *epochState

	rec    Tuple
	gv     Tuple // scratch evaluated group values, shipped with each tuple
	tuples uint64
	err    error
	closed bool

	// bx is the coordinator's batch-executor scratch (PushBatch), allocated
	// on first use.
	bx *batchExec

	stats runtimeCounters
	errs  chan error

	// gen counts closed windows; a retained checkpoint is only valid for
	// shard restart while its generation matches.
	gen         uint64
	ckptGen     uint64
	ckptEntries []ckptEntry
	hasCkpt     bool
}

// routeSeed starts the group routing hash (shared by Push and restore).
const routeSeed = uint64(0x51_7c_c1_b7_27_22_0a_95)

// StartParallel begins a sharded execution run delivering output rows to
// sink. It fails if any of the statement's aggregates does not support
// partial merging (Statement.Mergeable), since the shard partials could not
// then be combined — the same precondition Gigascope imposes on its
// LFTA/HFTA split.
func (s *Statement) StartParallel(sink func(Tuple) error, opts ParallelOptions) (*ParallelRun, error) {
	pr, err := s.newParallelRun(sink, opts)
	if err != nil {
		return nil, err
	}
	pr.launch()
	return pr, nil
}

// newParallelRun builds the run and its workers without launching the
// worker goroutines, so restore can seed shard state first.
func (s *Statement) newParallelRun(sink func(Tuple) error, opts ParallelOptions) (*ParallelRun, error) {
	if !s.p.mergeable {
		return nil, fmt.Errorf("gsql: query has a non-mergeable aggregate; sharded (LFTA/HFTA) execution requires every aggregate to support merging: %s", s.text)
	}
	o := opts.withDefaults()
	pr := &ParallelRun{
		p:       s.p,
		sink:    sink,
		opts:    o,
		width:   len(s.p.schema.Cols),
		rec:     make(Tuple, len(s.p.groupFns)+len(s.p.aggSpecs)),
		gv:      make(Tuple, len(s.p.groupFns)),
		workers: make([]*shardWorker, o.Shards),
		pending: make([]*tupleBatch, o.Shards),
		errs:    make(chan error, o.ErrorBuffer),
	}
	ep, err := newEpochState(o.Epoch)
	if err != nil {
		return nil, err
	}
	pr.ep = ep
	for i := range s.p.groupFns {
		if i != s.p.temporalIdx {
			pr.hasKey = true
		}
	}
	for i := range pr.workers {
		pr.workers[i] = &shardWorker{
			idx:    i,
			p:      s.p,
			width:  pr.width,
			work:   make(chan shardMsg, o.BufferedBatches),
			free:   make(chan *tupleBatch, o.BufferedBatches+1),
			done:   make(chan struct{}),
			stats:  &pr.stats,
			report: pr.reportErr,
			groups: make(map[string]*group, 256),
			gv:     make(Tuple, len(s.p.groupFns)),
			args:   make([]Value, 0, 4),
		}
	}
	return pr, nil
}

// launch starts the worker goroutines.
func (pr *ParallelRun) launch() {
	for _, w := range pr.workers {
		go w.run()
	}
}

// hashValue mixes one group value into a routing hash. Unlike appendKey this
// needs no buffer: collisions only co-locate two groups on a shard, they
// never conflate them.
func hashValue(seed uint64, v Value) uint64 {
	var payload uint64
	switch v.T {
	case TString:
		payload = core.HashString(v.S)
	case TFloat:
		payload = math.Float64bits(v.F)
	default:
		payload = uint64(v.I)
	}
	return core.Hash2(seed, payload^uint64(v.T)*0x9e3779b97f4a7c15)
}

// routeGroup returns the shard a group with these evaluated group values
// lives on — the same placement Push computes tuple by tuple.
func (pr *ParallelRun) routeGroup(gv Tuple) int {
	if !pr.hasKey {
		shard := pr.rr
		pr.rr++
		if pr.rr == len(pr.workers) {
			pr.rr = 0
		}
		return shard
	}
	h := routeSeed
	for i, v := range gv {
		if i == pr.p.temporalIdx {
			continue
		}
		h = hashValue(h, v)
	}
	return int(h % uint64(len(pr.workers)))
}

// fail records the run's first error and returns it.
func (pr *ParallelRun) fail(err error) error {
	if pr.err == nil {
		pr.err = err
	}
	return err
}

// reportErr publishes an error on the Errors channel without ever
// blocking; when the consumer lags, reports are dropped (counters still
// advance). Safe from any goroutine.
func (pr *ParallelRun) reportErr(err error) {
	select {
	case pr.errs <- err:
	default:
	}
}

// Errors returns the run's asynchronous error channel: recovered shard
// panics (and restart notices) are published here as they happen, in
// addition to surfacing from the next flush under PanicFail. The channel
// is never closed; drain it with non-blocking receives or a goroutine.
func (pr *ParallelRun) Errors() <-chan error { return pr.errs }

// errClosed reports use after Close.
var errClosed = fmt.Errorf("gsql: ParallelRun used after Close")

// Push routes one input tuple to its shard. The tuple's values are copied
// into the outgoing batch, so the caller may reuse the backing slice
// immediately. Tuples carrying NaN or ±Inf floats are rejected with a
// *NonFiniteValueError. Errors raised inside shard workers (expression or
// aggregate failures) surface at the next window flush or at Close.
func (pr *ParallelRun) Push(t Tuple) error {
	if pr.err != nil {
		return pr.err
	}
	if pr.closed {
		return errClosed
	}
	pr.tuples++
	if len(t) != pr.width {
		return pr.fail(fmt.Errorf("gsql: tuple has %d values, schema %s has %d columns", len(t), pr.p.schema.Name, pr.width))
	}
	if err := checkTupleFinite(pr.p.schema, t); err != nil {
		return err
	}
	// As in the serial path, the epoch check precedes stepping so the tuple
	// crossing a period boundary lands in the new frame on every shard.
	if pr.ep != nil {
		if ts, ok := pr.ep.time(t); ok {
			if newL, roll := pr.ep.observe(ts); roll {
				if err := pr.rollTo(newL); err != nil {
					return pr.fail(err)
				}
			}
		}
	}
	return pr.routeTuple(t)
}

// routeTuple is the post-epoch body of Push: WHERE, group evaluation with
// window-close detection, routing, and the shard enqueue. The batch
// executor's scalar replay path calls it directly.
func (pr *ParallelRun) routeTuple(t Tuple) error {
	if pr.p.where != nil {
		ok, err := pr.p.where(t)
		if err != nil {
			return pr.fail(err)
		}
		if !ok.Truthy() {
			return nil
		}
	}

	// Evaluate the group-by expressions: the temporal one drives window
	// close detection (flush points are identical to the serial Run's, so
	// out-of-order inputs group and emit identically), the rest form the
	// routing hash. The evaluated values ship with the tuple so the shard
	// does not evaluate them again.
	h := routeSeed
	gv := pr.gv
	for i, fn := range pr.p.groupFns {
		v, err := fn(t)
		if err != nil {
			return pr.fail(err)
		}
		gv[i] = v
		if i == pr.p.temporalIdx {
			if !pr.bucketSet {
				pr.bucket, pr.bucketSet = v, true
			} else if pr.p.bucketAfter(v, pr.bucket) {
				if err := pr.flushAll(); err != nil {
					return pr.fail(err)
				}
				pr.bucket = v
			}
			continue
		}
		h = hashValue(h, v)
	}
	var shard int
	if pr.hasKey {
		shard = int(h % uint64(len(pr.workers)))
	} else {
		shard = pr.rr
		pr.rr++
		if pr.rr == len(pr.workers) {
			pr.rr = 0
		}
	}
	pr.enqueue(shard, t, gv)
	return nil
}

// enqueue copies t (and its evaluated group values) into the shard's pending
// batch, shipping the batch when full.
func (pr *ParallelRun) enqueue(shard int, t Tuple, gv Tuple) {
	b := pr.pendingFor(shard)
	copy(b.vals[b.n*pr.width:(b.n+1)*pr.width], t)
	if gw := len(pr.p.groupFns); gw > 0 {
		copy(b.gvals[b.n*gw:(b.n+1)*gw], gv)
	}
	b.n++
	pr.shipIfFull(shard)
}

// pendingFor returns the shard's pending batch, reusing one from the
// worker's free list or allocating.
func (pr *ParallelRun) pendingFor(shard int) *tupleBatch {
	b := pr.pending[shard]
	if b == nil {
		select {
		case b = <-pr.workers[shard].free:
			b.n = 0
		default:
			b = &tupleBatch{vals: make([]Value, pr.opts.BatchSize*pr.width)}
			if gw := len(pr.p.groupFns); gw > 0 {
				b.gvals = make([]Value, pr.opts.BatchSize*gw)
			}
		}
		pr.pending[shard] = b
	}
	return b
}

// shipIfFull ships the shard's pending batch once it reaches BatchSize.
// Under OverloadBlock the bounded work channel provides backpressure: a
// shard more than BufferedBatches behind blocks the producer. Under
// OverloadDropNewest a full shard sheds the batch instead, counting the
// dropped tuples.
func (pr *ParallelRun) shipIfFull(shard int) {
	b := pr.pending[shard]
	if b.n < pr.opts.BatchSize {
		return
	}
	pr.pending[shard] = nil
	w := pr.workers[shard]
	if pr.opts.Overload == OverloadDropNewest {
		select {
		case w.work <- shardMsg{batch: b}:
		default:
			pr.stats.batchesShed.Add(1)
			pr.stats.tuplesShed.Add(uint64(b.n))
			select {
			case w.free <- b:
			default:
			}
		}
		return
	}
	w.work <- shardMsg{batch: b}
}

// rollTo performs a coordinated rollover: ship pending batches, send every
// shard an epoch request (a barrier riding the FIFO work channels — each
// shard shifts after exactly the tuples pushed before the roll), await all
// replies, then advance the supervisor. A shift error (an aggregate whose
// decay function cannot shift) poisons the run.
func (pr *ParallelRun) rollTo(newL float64) error {
	// A retained checkpoint serialized state in the old frame; refilling a
	// restarted shard from it after the roll would merge across mismatched
	// landmarks. Invalidate it.
	pr.ckptEntries, pr.hasCkpt = nil, false
	pr.shipPending()
	replies := make([]chan error, len(pr.workers))
	for i, w := range pr.workers {
		replies[i] = make(chan error, 1)
		w.work <- shardMsg{epoch: &epochReq{newL: newL, reply: replies[i]}}
	}
	var firstErr error
	for i := range replies {
		if err := <-replies[i]; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if pr.ep != nil {
		pr.ep.advanced(newL)
	}
	return nil
}

// ShiftLandmark rolls every live aggregate on every shard onto a new
// landmark — the runtime-wide rollover, callable directly in addition to the
// epoch supervisor's automatic rolls.
func (pr *ParallelRun) ShiftLandmark(newL float64) error {
	if pr.err != nil {
		return pr.err
	}
	if pr.closed {
		return errClosed
	}
	if err := pr.rollTo(newL); err != nil {
		return pr.fail(err)
	}
	return nil
}

// shipPending flushes every partially filled batch to its shard
// (blocking: these sends carry window-boundary and checkpoint semantics,
// so they are never shed).
func (pr *ParallelRun) shipPending() {
	for i, b := range pr.pending {
		if b != nil && b.n > 0 {
			pr.workers[i].work <- shardMsg{batch: b}
		}
		pr.pending[i] = nil
	}
}

// flushAll closes the current window: it ships every pending batch, drains
// all shards (a barrier that always completes, panics included), merges
// their partial groups into one high-level table — the HFTA combine, via
// Aggregator.Merge — and emits the result in key-sorted order. Panicked
// shards are handled per the PanicPolicy.
func (pr *ParallelRun) flushAll() error {
	pr.shipPending()
	replies := make([]chan shardResult, len(pr.workers))
	for i, w := range pr.workers {
		replies[i] = make(chan shardResult, 1)
		w.work <- shardMsg{drain: replies[i]}
	}
	results := make([]shardResult, len(pr.workers))
	for i := range replies {
		results[i] = <-replies[i]
	}
	gen := pr.gen
	pr.gen++

	var firstErr error
	high := make(map[string]*group, 256)
	var keyBuf []byte

	// The coordinator-side combine runs UDAF Merge/Final code, so it gets
	// the same panic isolation as the shard workers.
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				err := &ShardPanicError{Shard: -1, Value: rec, Stack: debug.Stack()}
				pr.stats.shardPanics.Add(1)
				pr.reportErr(err)
				if firstErr == nil {
					firstErr = err
				}
			}
		}()
		addGroup := func(key string, g *group) {
			if dst := high[key]; dst == nil {
				high[key] = g
			} else if err := mergeAggs(dst.aggs, g.aggs); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for i, res := range results {
			var pe *ShardPanicError
			if errors.As(res.err, &pe) && pr.opts.OnPanic == PanicRestart {
				// Restart: discard the panicked shard's partial window and
				// refill from the last checkpoint if it was taken in this
				// window — only tuples since the checkpoint are lost.
				pr.stats.shardRestarts.Add(1)
				if pr.hasCkpt && pr.ckptGen == gen {
					for _, en := range pr.ckptEntries {
						if en.shard != i {
							continue
						}
						d := codec.NewDec(en.data, "gsql: checkpoint")
						g := readGroupEntry(&d, pr.p)
						if err := d.Done(); err != nil {
							if firstErr == nil {
								firstErr = err
							}
							continue
						}
						keyBuf = keyBuf[:0]
						for _, v := range g.gv {
							keyBuf = v.appendKey(keyBuf)
						}
						addGroup(string(keyBuf), g)
					}
				}
				continue
			}
			if res.err != nil && firstErr == nil {
				firstErr = res.err
			}
			for k, g := range res.groups {
				addGroup(k, g)
			}
		}
		if firstErr != nil {
			return
		}
		firstErr = emitGroups(pr.p, high, pr.rec, pr.sink)
	}()
	if firstErr != nil {
		return firstErr
	}
	pr.stats.windowsClosed.Add(1)
	return nil
}

// Checkpoint serializes the run's full state — open window bucket and
// every shard's partial groups — without disturbing execution; pushing may
// continue afterwards. The bytes restore through Statement.Restore (serial)
// or Statement.RestoreParallel at any shard count. The producer also
// retains the checkpoint in decoded form: under PanicRestart, a shard that
// panics later in the same window is refilled from it.
func (pr *ParallelRun) Checkpoint() ([]byte, error) {
	if pr.closed {
		return nil, errClosed
	}
	if pr.err != nil {
		return nil, pr.err
	}
	if err := checkpointable(pr.p); err != nil {
		return nil, err
	}
	pr.shipPending()
	replies := make([]chan shardSnap, len(pr.workers))
	for i, w := range pr.workers {
		replies[i] = make(chan shardSnap, 1)
		w.work <- shardMsg{snap: replies[i]}
	}
	var entries []ckptEntry
	var firstErr error
	for i := range replies {
		res := <-replies[i]
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		for _, eb := range res.entries {
			entries = append(entries, ckptEntry{shard: i, data: eb})
		}
	}
	if firstErr != nil {
		// A failed shard makes the snapshot incomplete; the failure will
		// also surface at the next flush. Do not poison the run here.
		return nil, firstErr
	}
	b := appendCkptHeader(nil, pr.p, pr.bucketSet, pr.bucket, pr.tuples, pr.ep)
	b = codec.AppendU64(b, uint64(len(entries)))
	for _, en := range entries {
		b = append(b, en.data...)
	}
	pr.ckptEntries, pr.ckptGen, pr.hasCkpt = entries, pr.gen, true
	pr.stats.checkpoints.Add(1)
	return codec.Seal(b), nil
}

// RestoreParallel resumes a run from a checkpoint taken by Run.Checkpoint
// or ParallelRun.Checkpoint on the same statement, at any shard count:
// partial groups are routed to the shards their future tuples will hash
// to, the open window bucket is reinstated, and pushing the remainder of
// the stream yields the same results as an uninterrupted run (exact for
// the builtin aggregates, within documented error bounds for sketch
// UDAFs). Corrupt input returns an error and never a partial run.
func (s *Statement) RestoreParallel(ckpt []byte, sink func(Tuple) error, opts ParallelOptions) (*ParallelRun, error) {
	body, err := unsealCkpt(ckpt)
	if err != nil {
		return nil, err
	}
	pr, err := s.newParallelRun(sink, opts)
	if err != nil {
		return nil, err
	}
	var entries []ckptEntry
	var keyBuf []byte
	h, err := readCkpt(body, s.p, func(g *group, raw []byte) error {
		shard := pr.routeGroup(g.gv)
		w := pr.workers[shard]
		keyBuf = keyBuf[:0]
		for _, v := range g.gv {
			keyBuf = v.appendKey(keyBuf)
		}
		// Kept for PanicRestart refills: a copy, not the caller's bytes.
		entries = append(entries, ckptEntry{shard: shard, data: append([]byte(nil), raw...)})
		if dst := w.groups[string(keyBuf)]; dst != nil {
			return mergeAggs(dst.aggs, g.aggs)
		}
		w.groups[string(keyBuf)] = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	pr.bucketSet, pr.bucket, pr.tuples = h.bucketSet, h.bucket, h.tuples
	if h.epochSet {
		for _, w := range pr.workers {
			w.curL, w.landmarkSet = h.landmark, true
		}
		if pr.ep != nil {
			pr.ep.restoreFrom(h.epoch, h.landmark)
		}
	}
	pr.ckptEntries, pr.ckptGen, pr.hasCkpt = entries, 0, true
	pr.stats.restores.Add(1)
	pr.launch()
	return pr, nil
}

// Heartbeat advances the temporal bucket without carrying data, exactly as
// Run.Heartbeat does: closing (and emitting) any buckets older than the one
// containing ts. It is ignored for non-temporal queries.
func (pr *ParallelRun) Heartbeat(ts Value) error {
	if pr.err != nil {
		return pr.err
	}
	if pr.closed {
		return errClosed
	}
	if pr.ep != nil {
		if newL, roll := pr.ep.observe(ts.AsFloat()); roll {
			if err := pr.rollTo(newL); err != nil {
				return pr.fail(err)
			}
		}
	}
	if pr.p.temporalIdx < 0 {
		return nil
	}
	b, err := pr.p.temporalOf(ts)
	if err != nil {
		return pr.fail(err)
	}
	if !pr.bucketSet {
		pr.bucket, pr.bucketSet = b, true
		return nil
	}
	if pr.p.bucketAfter(b, pr.bucket) {
		if err := pr.flushAll(); err != nil {
			return pr.fail(err)
		}
		pr.bucket = b
	}
	return nil
}

// Close flushes the final (still open) bucket and shuts the shard workers
// down. It must be called exactly once; afterwards Push and Heartbeat fail.
func (pr *ParallelRun) Close() error {
	if pr.closed {
		return pr.err
	}
	pr.closed = true
	var flushErr error
	if pr.err == nil {
		flushErr = pr.flushAll()
	}
	for _, w := range pr.workers {
		close(w.work)
	}
	for _, w := range pr.workers {
		<-w.done
	}
	if flushErr != nil {
		return pr.fail(flushErr)
	}
	return pr.err
}

// Shards returns the number of shard workers.
func (pr *ParallelRun) Shards() int { return len(pr.workers) }

// Stats reports the number of tuples pushed (before WHERE filtering), for
// symmetry with Run.Stats.
func (pr *ParallelRun) Stats() (tuples uint64) { return pr.tuples }

// RuntimeStats snapshots the run's fault-tolerance counters. Like Push it
// belongs to the producer goroutine (or any goroutine after Close).
func (pr *ParallelRun) RuntimeStats() RuntimeStats {
	s := pr.stats.snapshot()
	s.TuplesIn = pr.tuples
	if pr.ep != nil {
		s.EpochRollovers = pr.ep.rolls
		s.SentinelTrips = pr.ep.trips
	}
	return s
}

// ExecuteParallel runs the statement over a finite tuple source under the
// sharded runtime, collecting all output rows — the parallel counterpart of
// Execute, for tests and examples. next returns the next tuple and false
// when exhausted.
func (s *Statement) ExecuteParallel(next func() (Tuple, bool), opts ParallelOptions) ([]Tuple, error) {
	var out []Tuple
	pr, err := s.StartParallel(func(row Tuple) error {
		out = append(out, row)
		return nil
	}, opts)
	if err != nil {
		return nil, err
	}
	for {
		t, ok := next()
		if !ok {
			break
		}
		if err := pr.Push(t); err != nil {
			pr.Close()
			return out, err
		}
	}
	if err := pr.Close(); err != nil {
		return out, err
	}
	return out, nil
}
