package gsql

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"

	"forwarddecay/internal/core"
	"forwarddecay/internal/faultinject"
)

// This file implements the sharded parallel runtime: the paper's two-level
// LFTA/HFTA architecture spread across cores instead of across a cheap
// low-level table and an expensive high-level one. N shard workers each run
// an independent low-level executor over a hash partition of the group
// space; on window close (or Close) every shard's partial aggregates are
// folded into a single high-level result via the existing Aggregator.Merge
// path and emitted exactly as the serial Run would emit them.
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
// Shard workers recover panics, so a panicking shard never deadlocks the
// drain barrier: the panic surfaces as a *ShardPanicError from the flush
// that drains it, or from Close. A full shard queue blocks the producer.

// ParallelOptions configure a sharded parallel run.
type ParallelOptions struct {
	// Shards is the number of shard workers (goroutines); default
	// runtime.GOMAXPROCS(0).
	Shards int
}

const (
	// shardBatchSize is the number of tuples shipped to a shard per channel
	// send.
	shardBatchSize = 256
	// shardQueue is the per-shard channel capacity in batches; the producer
	// blocks once a shard falls this far behind.
	shardQueue = 4
)

// tupleBatch is one unit of work shipped to a shard: n tuples of fixed
// width, stored flat (recycled via each worker's free list). gvals carries
// the coordinator's already-evaluated group values, one run of len(groupFns)
// Values per tuple: the coordinator evaluates every group expression for
// routing anyway, so shards reuse those bits instead of evaluating again.
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

// shardMsg is the single message type of a shard's work channel: a tuple
// batch or a drain request. FIFO channel order guarantees a drain request
// observes every batch sent before it.
type shardMsg struct {
	batch *tupleBatch
	drain chan shardResult
}

// shardWorker is one low-level executor: it owns a partial-group table keyed
// exactly like the serial high-level table and steps tuples into it.
type shardWorker struct {
	idx   int
	p     *plan
	width int
	work  chan shardMsg
	free  chan *tupleBatch // room for every batch in flight: the queue's and the one filling
	done  chan struct{}

	groups map[string]*group
	keyBuf []byte
	args   []Value
	err    error
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
		}
	}()
	gw := len(w.p.groupFns)
	for i := 0; i < b.n; i++ {
		t := Tuple(b.vals[i*w.width : (i+1)*w.width])
		gv := Tuple(b.gvals[i*gw : (i+1)*gw])
		if err := w.step(t, gv); err != nil {
			w.err = err
			return
		}
	}
}

// step folds one tuple into the shard's partial-group table. It mirrors the
// serial high-level path: same key encoding, same group-value capture, same
// aggregator stepping, on the group values the coordinator evaluated.
func (w *shardWorker) step(t Tuple, gv Tuple) error {
	if err := faultinject.Hit("gsql.shard.step"); err != nil {
		return err
	}
	w.keyBuf = w.p.keyAppend(w.keyBuf[:0], gv)
	g := w.groups[string(w.keyBuf)]
	if g == nil {
		g = &group{gv: append(Tuple(nil), gv...), aggs: newAggs(w.p)}
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

// ParallelRun executes one prepared statement across shard workers:
// PushBatch from a single producer goroutine, then Close. Output rows are
// delivered to the sink — on the producer's goroutine — as time buckets
// close, each bucket's groups in the same deterministic (key-sorted) order
// as the serial Run.
//
// A ParallelRun is single-use. PushBatch and Close must be called from one
// goroutine; Close must be called to release the shard workers.
type ParallelRun struct {
	p    *plan
	sink func(Tuple) error

	workers []*shardWorker
	pending []*tupleBatch // per-shard batch being filled
	width   int
	hasKey  bool // at least one non-temporal group column → hash routing
	rr      int  // round-robin cursor when !hasKey

	bucketSet bool
	bucket    Value

	rec    Tuple
	row    Tuple // scratch materialized row for the replay path
	gv     Tuple // scratch evaluated group values, shipped with each tuple
	tuples uint64
	err    error
	closed bool

	// bx is the coordinator's batch-executor scratch (PushBatch), allocated
	// on first use.
	bx *batchExec
}

// routeSeed starts the group routing hash.
const routeSeed = uint64(0x51_7c_c1_b7_27_22_0a_95)

// StartParallel begins a sharded execution run delivering output rows to
// sink. It fails if any of the statement's aggregates does not support
// partial merging (Statement.Mergeable), since the shard partials could not
// then be combined — the same precondition Gigascope imposes on its
// LFTA/HFTA split.
func (s *Statement) StartParallel(sink func(Tuple) error, opts ParallelOptions) (*ParallelRun, error) {
	if !s.p.mergeable {
		return nil, fmt.Errorf("gsql: query has a non-mergeable aggregate; sharded (LFTA/HFTA) execution requires every aggregate to support merging: %s", s.text)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	pr := &ParallelRun{
		p:       s.p,
		sink:    sink,
		width:   len(s.p.schema.Cols),
		rec:     make(Tuple, len(s.p.groupFns)+len(s.p.aggSpecs)),
		row:     make(Tuple, len(s.p.schema.Cols)),
		gv:      make(Tuple, len(s.p.groupFns)),
		workers: make([]*shardWorker, shards),
		pending: make([]*tupleBatch, shards),
	}
	for i := range s.p.groupFns {
		if i != s.p.temporalIdx {
			pr.hasKey = true
		}
	}
	for i := range pr.workers {
		w := &shardWorker{
			idx:    i,
			p:      s.p,
			width:  pr.width,
			work:   make(chan shardMsg, shardQueue),
			free:   make(chan *tupleBatch, shardQueue+1),
			done:   make(chan struct{}),
			groups: make(map[string]*group, 256),
			args:   make([]Value, 0, 4),
		}
		pr.workers[i] = w
		go w.run()
	}
	return pr, nil
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

// fail records the run's first error and returns it.
func (pr *ParallelRun) fail(err error) error {
	if pr.err == nil {
		pr.err = err
	}
	return err
}

// errClosed reports use after Close.
var errClosed = fmt.Errorf("gsql: ParallelRun used after Close")

// routeTuple routes one materialized row: WHERE, group evaluation with
// window-close detection, routing, and the shard enqueue. PushBatch's
// replay of a batch a kernel failed on calls it row by row.
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
			b = &tupleBatch{
				vals:  make([]Value, shardBatchSize*pr.width),
				gvals: make([]Value, shardBatchSize*len(pr.p.groupFns)),
			}
		}
		pr.pending[shard] = b
	}
	return b
}

// shipIfFull ships the shard's pending batch once it is full. The bounded
// work channel provides backpressure: a shard more than shardQueue batches
// behind blocks the producer.
func (pr *ParallelRun) shipIfFull(shard int) {
	b := pr.pending[shard]
	if b.n < shardBatchSize {
		return
	}
	pr.pending[shard] = nil
	pr.workers[shard].work <- shardMsg{batch: b}
}

// shipPending flushes every partially filled batch to its shard.
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
// Aggregator.Merge — and emits the result in key-sorted order. A shard's
// error, a recovered panic included, fails the flush.
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

	var firstErr error
	high := make(map[string]*group, 256)

	// The coordinator-side combine runs UDAF Merge/Final code, so it gets
	// the same panic isolation as the shard workers.
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				err := &ShardPanicError{Shard: -1, Value: rec, Stack: debug.Stack()}
				if firstErr == nil {
					firstErr = err
				}
			}
		}()
		for _, res := range results {
			if res.err != nil && firstErr == nil {
				firstErr = res.err
			}
			for k, g := range res.groups {
				if dst := high[k]; dst == nil {
					high[k] = g
				} else if err := mergeAggs(dst.aggs, g.aggs); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		if firstErr != nil {
			return
		}
		firstErr = emitGroups(pr.p, high, pr.rec, pr.sink)
	}()
	return firstErr
}

// Close flushes the final (still open) bucket and shuts the shard workers
// down. Afterwards PushBatch fails, and a second Close returns the run's
// error again.
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
