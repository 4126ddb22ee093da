package server

// Result distribution: every attached query owns a resultLog — a bounded
// ring of emitted rows addressed by absolute 1-based cursors — and each
// subscription is a puller with its own cursor and slow-consumer policy.
//
// The cursor is the resume token: rows are emitted deterministically (the
// engine sorts each closing bucket), so row N of a restarted runtime is
// bit-identical to row N of one that never crashed. A subscriber that
// reconnects and asks for cursor N+1 therefore continues exactly where it
// left off, whatever happened to the server in between.
//
// Slow consumers: the emit (hot) path appends to the ring. When the ring is
// full, the oldest row is evicted — unless a PolicyBlock or
// PolicyDisconnect subscriber still needs it. PolicyBlock holds the emit
// path indefinitely (explicit opt-in backpressure); PolicyDisconnect holds
// it only for the subscription's stall budget and is then force-removed;
// PolicyDropOldest never holds anything and instead observes a cursor gap,
// reported to the client as an StGap frame. With only drop-oldest
// subscribers attached, an append never blocks — a stalled dashboard
// cannot touch ingest latency.
//
// The resultLog outlives runtime incarnations: on a supervised restart the
// ring is truncated to the last checkpoint's cursor and the WAL replay
// re-appends the identical rows, so attached subscribers keep their cursors
// and notice nothing but a pause.
//
// Storage is one flat, circular slice of values, rows of one fixed width
// side by side. It starts empty and grows geometrically as rows arrive
// until it holds cap rows, then wraps: a catalog of a thousand mostly quiet
// queries must not pay for a thousand full rings. Rows are copied in by value and encoded
// straight out of the ring (a subscriber's batch frame, a checkpoint's ring
// image) under the ring lock, so the ring never hands out its storage.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
)

// fetchStatus tells a subscription goroutine why fetch returned.
type fetchStatus uint8

const (
	fetchRows    fetchStatus = iota // a frame of rows encoded; deliver then advance
	fetchGap                        // rows were shed behind this subscriber
	fetchRemoved                    // force-removed by policy or detach
	fetchClosed                     // service shutting down
)

// subscriber is one subscription's cursor state, shared between its
// connection goroutine and the emit path (guarded by the resultLog mutex).
type subscriber struct {
	policy Policy
	// budget is the PolicyDisconnect stall allowance.
	budget time.Duration
	// cursor is the next cursor to deliver (1-based).
	cursor uint64
	// stalled, when nonzero, is when this subscriber first held up a full
	// ring; cleared when it advances.
	stalled time.Time
	// removed is set by the emit path (policy kill) or detach.
	removed bool
	// shedFrom..cursor-1 were dropped behind a PolicyDropOldest subscriber.
	shedFrom uint64
	shed     bool
}

// resultLog is the bounded result ring for one query.
type resultLog struct {
	mu sync.Mutex
	// wake is the channel the parked wait on; nil while nobody is parked, so
	// a state change with no waiter costs nothing (see park and broadcast).
	wake chan struct{}

	cap  int    // most rows retained
	base uint64 // cursor of the oldest retained row; the next assigned is base+n
	// The rows: vals holds len(vals)/width slots of width values each, row
	// base+i in slot (head+i) mod slots.
	width int
	vals  []gsql.Value
	head  int
	n     int

	subs   map[*subscriber]struct{}
	closed bool // service shutdown: every waiter drains out

	// frozen drops appends silently: set while tearing an incarnation down
	// so run.Close()'s partial-bucket flush cannot pollute the cursor
	// sequence (those rows are re-derived by the successor's replay).
	frozen bool

	// onShed and onDisconnect count policy actions into service metrics.
	onShed       func(rows uint64)
	onDisconnect func()
}

func newResultLog(capacity int) *resultLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &resultLog{
		cap:  capacity,
		base: 1,
		subs: map[*subscriber]struct{}{},
	}
}

// park returns the channel the next broadcast closes. Callers hold rl.mu,
// release it, and receive from the channel.
func (rl *resultLog) park() chan struct{} {
	if rl.wake == nil {
		rl.wake = make(chan struct{})
	}
	return rl.wake
}

// broadcast wakes every parked waiter (emit path and subscribers).
func (rl *resultLog) broadcast() {
	if rl.wake != nil {
		close(rl.wake)
		rl.wake = nil
	}
}

// endLocked returns the highest assigned cursor (0 before the first row).
func (rl *resultLog) endLocked() uint64 { return rl.base + uint64(rl.n) - 1 }

// bounds returns the cursors of the oldest and newest retained rows
// (end = base-1 while the ring is empty).
func (rl *resultLog) bounds() (base, end uint64) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.base, rl.endLocked()
}

// rowLocked returns row base+i as a view into the ring, valid only while
// rl.mu is held.
func (rl *resultLog) rowLocked(i int) gsql.Tuple {
	at := (rl.head + i) % (len(rl.vals) / rl.width) * rl.width
	return rl.vals[at : at+rl.width]
}

// putLocked copies one row into the slot after the newest; the caller has
// made sure rl.n < rl.cap. A full store grows by a quarter (re-linearized)
// until it holds cap rows: a thousand rings filling in lockstep carry a
// thousand times the slack, so the step is small.
func (rl *resultLog) putLocked(row gsql.Tuple) {
	if rl.width == 0 {
		rl.width = len(row)
	}
	if len(row) != rl.width || rl.width == 0 {
		// One query, one projection: only a bug can change the width.
		panic(fmt.Sprintf("server: result row of %d columns in a ring of %d-column rows", len(row), rl.width))
	}
	slots := len(rl.vals) / rl.width
	if rl.n == slots {
		grown := min(slots+max(slots/4, 16), rl.cap)
		vals := make([]gsql.Value, grown*rl.width)
		for i := 0; i < rl.n; i++ {
			copy(vals[i*rl.width:], rl.rowLocked(i))
		}
		rl.vals, rl.head, slots = vals, 0, grown
	}
	copy(rl.vals[(rl.head+rl.n)%slots*rl.width:], row)
	rl.n++
}

// appendRows adds the rows one apply of the runtime emitted — a bucket
// flush, usually — under one lock acquisition and wakes the waiters once,
// enforcing the slow-consumer policies whenever the ring is full. Values are
// copied in; the rows stay the caller's.
//
// fence, when non-nil, is the owning incarnation's teardown fence. A writer
// parked here while its incarnation is torn down must drop the rest of its
// rows when it wakes — even if a successor has already thawed the ring —
// because the successor's WAL replay re-derives those rows itself.
func (rl *resultLog) appendRows(rows []gsql.Tuple, fence *atomic.Bool) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.frozen || rl.closed {
		return
	}
	for _, row := range rows {
		for rl.n >= rl.cap {
			if rl.evictOneLocked() {
				continue
			}
			// A holder refused the eviction; wait for it to advance, be
			// removed, or run out of stall budget. What this call appended
			// or evicted so far is announced first.
			rl.broadcast()
			wake := rl.park()
			wait := rl.minBudgetLocked()
			rl.mu.Unlock()
			if wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-wake:
				case <-t.C:
				}
				t.Stop()
			} else {
				<-wake
			}
			rl.mu.Lock()
			if rl.frozen || rl.closed || (fence != nil && fence.Load()) {
				return
			}
		}
		rl.putLocked(row)
	}
	rl.broadcast()
}

// evictOneLocked tries to drop the oldest row. It returns false when a
// PolicyBlock / PolicyDisconnect subscriber still needs that row and has
// stall budget left; expired PolicyDisconnect holders are force-removed.
// Only appendRows evicts, and it broadcasts before parking and when done.
func (rl *resultLog) evictOneLocked() bool {
	now := time.Now()
	blocked := false
	for s := range rl.subs {
		if s.removed || s.cursor > rl.base {
			continue
		}
		switch s.policy {
		case PolicyDropOldest:
			// Does not hold; it will observe the gap at its next fetch.
		case PolicyBlock:
			if s.stalled.IsZero() {
				s.stalled = now
			}
			blocked = true
		case PolicyDisconnect:
			if s.stalled.IsZero() {
				s.stalled = now
			}
			if now.Sub(s.stalled) >= s.budget {
				s.removed = true
				if rl.onDisconnect != nil {
					rl.onDisconnect()
				}
				continue
			}
			blocked = true
		}
	}
	if blocked {
		return false
	}
	// Evict: drop-oldest subscribers at or below base fall into a gap.
	for s := range rl.subs {
		if !s.removed && s.policy == PolicyDropOldest && s.cursor <= rl.base {
			if !s.shed {
				s.shed, s.shedFrom = true, s.cursor
			}
			if rl.onShed != nil {
				rl.onShed(1)
			}
		}
	}
	rl.head = (rl.head + 1) % (len(rl.vals) / rl.width)
	rl.n--
	rl.base++
	return true
}

// minBudgetLocked returns the shortest remaining stall budget among
// blocking PolicyDisconnect holders, or 0 when only PolicyBlock holders
// remain (wait without a deadline).
func (rl *resultLog) minBudgetLocked() time.Duration {
	now := time.Now()
	min := time.Duration(0)
	for s := range rl.subs {
		if s.removed || s.policy != PolicyDisconnect || s.cursor > rl.base {
			continue
		}
		rem := s.budget - now.Sub(s.stalled)
		if rem < time.Millisecond {
			rem = time.Millisecond
		}
		if min == 0 || rem < min {
			min = rem
		}
	}
	return min
}

// subscribe registers a puller starting at cursor (1-based; 0 means "from
// the oldest retained row"). Cursors in the future are allowed — the fetch
// waits until emission catches up, which is exactly what a resuming
// subscriber wants when it reconnects faster than the runtime rebuilds.
func (rl *resultLog) subscribe(cursor uint64, policy Policy, budget time.Duration) *subscriber {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if cursor == 0 {
		cursor = rl.base
	}
	s := &subscriber{policy: policy, budget: budget, cursor: cursor}
	rl.subs[s] = struct{}{}
	return s
}

// unsubscribe removes a puller and releases anything it was holding.
func (rl *resultLog) unsubscribe(s *subscriber) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if _, ok := rl.subs[s]; ok {
		delete(rl.subs, s)
		// The subscription's writer may be parked in fetch waiting for rows;
		// mark it removed so that fetch returns instead of waiting forever.
		s.removed = true
		rl.broadcast()
	}
}

// fetch blocks until rows are available at s.cursor (or the subscriber is
// removed / the log closes). It seals up to max of them — fewer when they
// would overflow MaxControlFrame — as one StRow frame for query, written
// over dst, WITHOUT advancing the cursor: the caller delivers the frame to
// the network first and then calls advance with n, so the un-advanced cursor
// is what holds rows for the blocking policies.
func (rl *resultLog) fetch(s *subscriber, query uint32, max int, dst []byte) (frame []byte, n int, start, gapFrom uint64, st fetchStatus) {
	rl.mu.Lock()
	for {
		switch {
		case s.removed:
			rl.mu.Unlock()
			return dst, 0, 0, 0, fetchRemoved
		case rl.closed:
			rl.mu.Unlock()
			return dst, 0, 0, 0, fetchClosed
		case s.shed:
			// Rows [shedFrom, base) were dropped behind this subscriber.
			gapFrom = s.shedFrom
			s.shed = false
			s.cursor = rl.base
			start = rl.base
			rl.mu.Unlock()
			return dst, 0, start, gapFrom, fetchGap
		case s.cursor < rl.base:
			// Resuming below the retained window (e.g. reconnect after a
			// long absence): same shape as a shed gap.
			gapFrom = s.cursor
			s.cursor = rl.base
			start = rl.base
			rl.mu.Unlock()
			return dst, 0, start, gapFrom, fetchGap
		case s.cursor <= rl.endLocked():
			start = s.cursor
			frame, n = rl.appendRowFrameLocked(dst[:0], query, start, max)
			rl.mu.Unlock()
			return frame, n, start, 0, fetchRows
		}
		wake := rl.park()
		rl.mu.Unlock()
		<-wake
		rl.mu.Lock()
	}
}

// appendRowFrameLocked seals the retained rows from cursor start on — at most
// max, and no more than keep the body within MaxControlFrame, but always one
// — onto b as an StRow frame.
func (rl *resultLog) appendRowFrameLocked(b []byte, query uint32, start uint64, max int) ([]byte, int) {
	i := int(start - rl.base)
	max = min(max, rl.n-i)
	at := len(b)
	b = ingest.ReserveSealed(b)
	b = append(b, StRow, 0, 0, 0, 0) // request id 0: rows answer no request
	b = appendRowBatchHeader(b, query, start, rl.width, 0)
	countAt := len(b) - 4
	n := 0
	for ; n < max; n++ {
		rowAt := len(b)
		for _, v := range rl.rowLocked(i + n) {
			b = appendValue(b, v)
		}
		if n > 0 && len(b)-at-ingest.SealedHeaderSize > MaxControlFrame {
			b = b[:rowAt]
			break
		}
	}
	binary.LittleEndian.PutUint32(b[countAt:], uint32(n))
	ingest.SealInPlace(b, at)
	return b, n
}

// advance moves the cursor past delivered rows, releasing any hold.
func (rl *resultLog) advance(s *subscriber, n uint64) {
	rl.mu.Lock()
	s.cursor += n
	s.stalled = time.Time{}
	rl.broadcast()
	rl.mu.Unlock()
}

// freeze drops subsequent appends (incarnation teardown); thaw re-enables
// them (rebuild complete).
func (rl *resultLog) freeze() {
	rl.mu.Lock()
	rl.frozen = true
	rl.broadcast()
	rl.mu.Unlock()
}

func (rl *resultLog) thaw() {
	rl.mu.Lock()
	rl.frozen = false
	rl.mu.Unlock()
}

// truncateTo drops every row with cursor > k: those rows postdate the
// checkpoint being restored and will be re-emitted, bit-identically, by the
// WAL replay. Subscribers keep their cursors — one mid-stream at c > k
// simply waits for the replay to pass c again.
func (rl *resultLog) truncateTo(k uint64) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if k+1 < rl.base {
		// The ring evicted past the checkpoint: nothing retained survives,
		// and the next replayed row is cursor k+1.
		rl.base, rl.head, rl.n = k+1, 0, 0
	} else if k < rl.endLocked() {
		rl.n = int(k - rl.base + 1)
	}
	rl.broadcast()
}

// restore replaces the ring contents from a checkpoint snapshot (cold
// start); of more rows than the ring retains, the newest are kept.
func (rl *resultLog) restore(base uint64, rows []gsql.Tuple) {
	rl.mu.Lock()
	if drop := len(rows) - rl.cap; drop > 0 {
		base, rows = base+uint64(drop), rows[drop:]
	}
	rl.base, rl.head, rl.n = base, 0, 0
	for _, row := range rows {
		rl.putLocked(row)
	}
	rl.broadcast()
	rl.mu.Unlock()
}

// appendSnapshot appends the ring's image to a state file under
// construction, in queryState's layout: base, end, row count, rows.
func (rl *resultLog) appendSnapshot(b []byte) []byte {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b = binary.LittleEndian.AppendUint64(b, rl.base)
	b = binary.LittleEndian.AppendUint64(b, rl.endLocked())
	b = binary.LittleEndian.AppendUint32(b, uint32(rl.n))
	for i := 0; i < rl.n; i++ {
		b = appendRow(b, rl.rowLocked(i))
	}
	return b
}

// close releases every waiter for service shutdown.
func (rl *resultLog) close() {
	rl.mu.Lock()
	rl.closed = true
	rl.broadcast()
	rl.mu.Unlock()
}
