package gsql

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"

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
// The coordinator runs every kernel of the plan — WHERE, the group keys and
// the aggregate arguments — and ships each routed row's group values and
// argument values; a shard keys its groups by the values and steps their
// aggregates on the arguments. Routing hashes the non-temporal group
// values, so every logical group lives on exactly one shard and
// accumulates its rows in arrival order — the merged output is then
// bit-identical to the serial path, including float aggregates and
// mergeable sketch UDAFs. Queries with no non-temporal group columns
// (global aggregates, purely temporal grouping) are routed round-robin
// instead; their per-group partials are combined with Merge, whose float
// reassociation may differ from serial evaluation in the last ulp (and
// whose sketch merges carry the documented additive error bounds).
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
	// shardBatchSize is the number of rows shipped to a shard per channel
	// send.
	shardBatchSize = 256
	// shardQueue is the per-shard channel capacity in batches; the producer
	// blocks once a shard falls this far behind.
	shardQueue = 4
)

// shardBatch is one unit of work shipped to a shard: n routed rows of
// width values each — a row's group values, then its aggregate arguments
// slot by slot — stored flat (recycled via each worker's free list).
type shardBatch struct {
	vals []Value
	n    int
}

// shardResult is a shard's reply to a drain request: its accumulated
// partial groups (ownership transfers to the coordinator) and its sticky
// error, if any.
type shardResult struct {
	groups map[string]*group
	err    error
}

// shardMsg is the single message type of a shard's work channel: a row
// batch or a drain request. FIFO channel order guarantees a drain request
// observes every batch sent before it.
type shardMsg struct {
	batch *shardBatch
	drain chan shardResult
}

// shardWorker is one low-level executor: it owns a partial-group table keyed
// exactly like the serial high-level table and steps rows into it.
type shardWorker struct {
	idx   int
	p     *plan
	width int
	work  chan shardMsg
	free  chan *shardBatch // room for every batch in flight: the queue's and the one filling
	done  chan struct{}

	groups map[string]*group
	keyBuf []byte
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
// panicking row (bad UDAF) marks the shard failed for this window but leaves
// the worker alive and answering drains.
func (w *shardWorker) process(b *shardBatch) {
	if w.err != nil {
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			w.err = &ShardPanicError{Shard: w.idx, Value: rec, Stack: debug.Stack()}
		}
	}()
	ng := len(w.p.vec.groups)
	for i := 0; i < b.n; i++ {
		row := b.vals[i*w.width : (i+1)*w.width]
		if err := w.step(row[:ng], row[ng:]); err != nil {
			w.err = err
			return
		}
	}
}

// step folds one routed row into the shard's partial-group table: the
// serial high-level path's key encoding and group-value capture, and each
// slot's Step on its arguments.
func (w *shardWorker) step(gv, args Tuple) error {
	if err := faultinject.Hit("gsql.shard.step"); err != nil {
		return err
	}
	w.keyBuf = w.p.keyAppend(w.keyBuf[:0], gv)
	g := w.groups[string(w.keyBuf)]
	if g == nil {
		g = &group{gv: append(Tuple(nil), gv...), aggs: newAggs(w.p)}
		w.groups[string(w.keyBuf)] = g
	}
	for si, a := range g.aggs {
		k := len(w.p.vec.args[si])
		if err := a.Step(args[:k:k]); err != nil {
			return err
		}
		args = args[k:]
	}
	return nil
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
	pending []*shardBatch // per-shard batch being filled
	width   int           // values per shipped row: group values, then arguments
	hasKey  bool          // at least one non-temporal group column → hash routing
	rr      int           // round-robin cursor when !hasKey

	bucketSet bool
	bucket    Value

	tuples uint64
	err    error
	closed bool

	// bx is the coordinator's batch-executor scratch (PushBatch), allocated
	// on first use; fails are the rows of a batch whose arguments failed.
	// em is the output stage the merged groups emit through (emitRows).
	bx    *batchExec
	fails []rowErr
	em    *emitter
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
		return nil, fmt.Errorf("gsql: query has a non-mergeable aggregate; sharded (LFTA/HFTA) execution requires every aggregate to support merging: %s", s.p.text)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	pr := &ParallelRun{
		p:       s.p,
		sink:    sink,
		width:   len(s.p.vec.groups),
		workers: make([]*shardWorker, shards),
		pending: make([]*shardBatch, shards),
	}
	for _, args := range s.p.vec.args {
		pr.width += len(args)
	}
	for i := range s.p.vec.groups {
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
			free:   make(chan *shardBatch, shardQueue+1),
			done:   make(chan struct{}),
			groups: make(map[string]*group, 256),
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

// pendingFor returns the shard's pending batch, reusing one from the
// worker's free list or allocating.
func (pr *ParallelRun) pendingFor(shard int) *shardBatch {
	b := pr.pending[shard]
	if b == nil {
		select {
		case b = <-pr.workers[shard].free:
			b.n = 0
		default:
			b = &shardBatch{vals: make([]Value, shardBatchSize*pr.width)}
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
		keys := make([]string, 0, len(high))
		for k := range high {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		refs := make([]*group, len(keys))
		for i, k := range keys {
			refs[i] = high[k]
		}
		firstErr = emitRows(pr.p, &pr.em, refs, groupAggs, pr.sink)
	}()
	return firstErr
}

// groupAggs returns a shard group's aggregates.
func groupAggs(g *group) []Aggregator { return g.aggs }

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
