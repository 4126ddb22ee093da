package gsql

import (
	"fmt"
	"math"
	"sync/atomic"
)

// RuntimeStats is a point-in-time snapshot of a run's fault-tolerance and
// throughput counters — the observability surface for load shedding, panic
// isolation and checkpointing. Serial runs populate the ingest and
// checkpoint fields; the shard fields are only meaningful for ParallelRun.
type RuntimeStats struct {
	// TuplesIn counts tuples offered to Push (before WHERE filtering).
	TuplesIn uint64
	// TuplesShed and BatchesShed count data dropped by the overload
	// policy (OverloadDropNewest) instead of blocking the producer.
	TuplesShed  uint64
	BatchesShed uint64
	// Checkpoints and Restores count successful Checkpoint calls and
	// restored runs.
	Checkpoints uint64
	Restores    uint64
	// ShardPanics counts panics recovered inside shard workers;
	// ShardRestarts counts shards whose window state was reset (and, when
	// a current-window checkpoint existed, refilled from it).
	ShardPanics   uint64
	ShardRestarts uint64
	// WindowsClosed counts emitted time buckets.
	WindowsClosed uint64
	// Evictions counts low-level table evictions (serial two-level path).
	Evictions uint64
	// EpochRollovers counts landmark rollovers applied by this run (epoch
	// supervisor and direct ShiftLandmark calls); SentinelTrips counts
	// overflow-sentinel threshold crossings (each crossing counted once, even
	// in monitor-only mode where no roll follows).
	EpochRollovers uint64
	SentinelTrips  uint64

	// Ingest counters, populated by a network ingest front-end (the ingest
	// package's Listener merges them into the run's snapshot); always zero
	// for runs fed in-process.

	// FramesAccepted counts wire frames decoded, deduplicated and applied.
	FramesAccepted uint64
	// AcksWritten counts cumulative acks written to clients. One ack can
	// cover many frames, so FramesAccepted/AcksWritten is the coalescing
	// factor of the ack path (1 when the socket keeps up with the pump).
	AcksWritten uint64
	// FramesQuarantined counts malformed frames diverted to the dead-letter
	// ring instead of being applied (or crashing the server).
	FramesQuarantined uint64
	// DuplicatesDropped counts frames discarded because their sequence
	// number was already applied (reconnect replays, duplicated deliveries).
	DuplicatesDropped uint64
	// Reconnects counts sessions re-attached by a returning client.
	Reconnects uint64
	// HeartbeatsSynthesized counts wall-clock heartbeats the ingest server
	// generated on idle connections to keep time buckets closing.
	HeartbeatsSynthesized uint64
	// TuplesRejected counts tuples inside accepted frames that the run
	// refused (e.g. non-finite values); the rest of the frame still applies.
	TuplesRejected uint64
}

// runtimeCounters is the mutable, concurrency-safe backing store for
// RuntimeStats. Producer-side counters could be plain fields, but shard
// workers bump ShardPanics from their own goroutines, so everything is
// atomic for uniformity (these are all off the per-tuple hot path).
type runtimeCounters struct {
	tuplesIn      atomic.Uint64
	tuplesShed    atomic.Uint64
	batchesShed   atomic.Uint64
	checkpoints   atomic.Uint64
	restores      atomic.Uint64
	shardPanics   atomic.Uint64
	shardRestarts atomic.Uint64
	windowsClosed atomic.Uint64
}

// snapshot materializes the counters.
func (c *runtimeCounters) snapshot() RuntimeStats {
	return RuntimeStats{
		TuplesIn:      c.tuplesIn.Load(),
		TuplesShed:    c.tuplesShed.Load(),
		BatchesShed:   c.batchesShed.Load(),
		Checkpoints:   c.checkpoints.Load(),
		Restores:      c.restores.Load(),
		ShardPanics:   c.shardPanics.Load(),
		ShardRestarts: c.shardRestarts.Load(),
		WindowsClosed: c.windowsClosed.Load(),
	}
}

// RuntimeStats snapshots the serial run's counters.
func (r *Run) RuntimeStats() RuntimeStats {
	st := RuntimeStats{
		TuplesIn:      r.tuples,
		Checkpoints:   r.checkpoints,
		Restores:      r.restores,
		WindowsClosed: r.tab.windows + r.winBase,
		Evictions:     r.tab.evictions + r.evBase,
	}
	if r.ep != nil {
		st.EpochRollovers = r.ep.rolls
		st.SentinelTrips = r.ep.trips
	}
	return st
}

// NonFiniteValueError reports a NaN or ±Inf float in a posted tuple. Such
// values are rejected at the ingest boundary: once folded into decayed
// state or a group key they poison every later result of the window.
type NonFiniteValueError struct {
	// Column is the schema column holding the bad value (empty if the
	// tuple is wider than the schema).
	Column string
	// X is the offending value.
	X float64
}

func (e *NonFiniteValueError) Error() string {
	return fmt.Sprintf("gsql: non-finite value %v in column %q rejected", e.X, e.Column)
}

// checkTupleFinite validates every float in a posted tuple, returning a
// typed error for the first NaN/±Inf.
func checkTupleFinite(s *Schema, t Tuple) error {
	for i, v := range t {
		if v.T == TFloat && (math.IsNaN(v.F) || math.IsInf(v.F, 0)) {
			name := ""
			if i < len(s.Cols) {
				name = s.Cols[i].Name
			}
			return &NonFiniteValueError{Column: name, X: v.F}
		}
	}
	return nil
}

// ShardPanicError reports a panic recovered inside a shard worker (or a
// UDAF merge/final on the coordinator). The drain barrier still completes
// when a shard panics; the error surfaces through ParallelRun.Errors and —
// under PanicFail — from the window flush.
type ShardPanicError struct {
	// Shard is the worker index, or -1 for a coordinator-side panic.
	Shard int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker stack at recovery time.
	Stack []byte
}

func (e *ShardPanicError) Error() string {
	where := fmt.Sprintf("shard %d", e.Shard)
	if e.Shard < 0 {
		where = "coordinator"
	}
	return fmt.Sprintf("gsql: panic in %s: %v", where, e.Value)
}
