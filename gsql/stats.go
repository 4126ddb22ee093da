package gsql

import (
	"fmt"
	"math"
)

// RuntimeStats is a point-in-time snapshot of a serial run's throughput,
// checkpoint and epoch counters (Run.RuntimeStats), plus the ingest
// counters a network front-end adds (ingest.Listener.RuntimeStats).
type RuntimeStats struct {
	// TuplesIn counts tuples offered to Push (before WHERE filtering).
	TuplesIn uint64
	// Checkpoints and Restores count successful Checkpoint calls and
	// restored runs.
	Checkpoints uint64
	Restores    uint64
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
	// FramesQuarantined counts malformed frames quarantined (counted and
	// logged) instead of being applied (or crashing the server).
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
// when a shard panics; the error surfaces from the window flush, or from
// Close, and poisons the run.
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
