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
// Storage holds each row in its wire encoding — the bytes appendValue writes
// for its values — back to back in one circular byte buffer, with one u32
// offset per row slot to find a cursor without scanning. Nothing in it is a
// pointer, so the garbage collector never scans a ring. It starts empty and
// grows by a quarter as rows arrive until it holds cap rows, then wraps: a
// catalog of a thousand mostly quiet queries must not pay for a thousand
// full rings. The emit path encodes each row once, outside the ring lock
// (rowBuf); a subscriber's batch frame and a checkpoint's ring image copy
// the bytes out under the lock, so the ring never hands out its storage.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
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

// rowBuf is a run of rows in their wire encoding: each row's values as
// appendValue writes them, rows back to back. A query run's emit sink
// encodes into one, and a state file's ring image decodes into one; the
// ring copies rows in from either.
type rowBuf struct {
	width int // values per row; 0 until the first row
	n     int // rows
	data  []byte
}

// rowEnd returns where the row that starts at data[at] ends.
func (rb *rowBuf) rowEnd(at int) int {
	for range rb.width {
		switch gsql.Type(rb.data[at]) {
		case gsql.TNull:
			at++
		case gsql.TString:
			at += 5 + int(binary.LittleEndian.Uint32(rb.data[at+1:]))
		default:
			at += 9
		}
	}
	return at
}

// add encodes one row.
func (rb *rowBuf) add(row gsql.Tuple) {
	if rb.width == 0 {
		rb.width = len(row)
	}
	if len(row) != rb.width || rb.width == 0 {
		// One query, one projection: only a bug can change the width.
		panic(fmt.Sprintf("server: result row of %d columns among %d-column rows", len(row), rb.width))
	}
	b := rb.data
	for _, v := range row {
		b = appendValue(b, v)
	}
	rb.data = b
	rb.n++
}

// reset empties rb, keeping its buffer and width.
func (rb *rowBuf) reset() { rb.n, rb.data = 0, rb.data[:0] }

// resultLog is the bounded result ring for one query.
type resultLog struct {
	mu sync.Mutex
	// wake is the channel the parked wait on; nil while nobody is parked, so
	// a state change with no waiter costs nothing (see park and broadcast).
	wake chan struct{}

	cap  int    // most rows retained
	base uint64 // cursor of the oldest retained row; the next assigned is base+n
	// The rows, in their wire encoding. store is one allocation: slots u32
	// offsets (little-endian), then the data, a circular byte buffer. Row
	// base+i sits in slot (head+i) mod slots, whose offset is where its bytes
	// start in the data; rows lie back to back, so a row ends where the next
	// one starts, and the newest ends used bytes after the oldest's start,
	// each wrapping at the end of the data.
	width int
	store []byte
	slots int
	head  int
	n     int
	used  int

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

// dataLocked returns the circular byte buffer.
func (rl *resultLog) dataLocked() []byte { return rl.store[4*rl.slots:] }

// offLocked returns where row base+i starts in the data; for i = n, where
// the next row goes.
func (rl *resultLog) offLocked(i int) int {
	if i == rl.n {
		if i == 0 {
			return 0
		}
		return (rl.offLocked(0) + rl.used) % len(rl.dataLocked())
	}
	return int(binary.LittleEndian.Uint32(rl.store[4*((rl.head+i)%rl.slots):]))
}

// spanLocked returns the bytes rows base+i..base+j-1 take (i ≤ j ≤ n).
// Rows are never empty, so a span that comes out 0 or less has wrapped.
func (rl *resultLog) spanLocked(i, j int) int {
	if i == j {
		return 0
	}
	d := rl.offLocked(j) - rl.offLocked(i)
	if d <= 0 {
		d += len(rl.dataLocked())
	}
	return d
}

// appendSpanLocked appends the bytes of rows base+i..base+j-1 to b.
func (rl *resultLog) appendSpanLocked(b []byte, i, j int) []byte {
	data := rl.dataLocked()
	from, k := rl.offLocked(i), rl.spanLocked(i, j)
	if tail := len(data) - from; k > tail {
		b = append(b, data[from:]...)
		from, k = 0, k-tail
	}
	return append(b, data[from:from+k]...)
}

// setWidthLocked takes the row width of the first rows and refuses any
// other later.
func (rl *resultLog) setWidthLocked(width int) {
	if rl.width == 0 {
		rl.width = width
	}
	if width != rl.width || rl.width == 0 {
		// One query, one projection: only a bug can change the width.
		panic(fmt.Sprintf("server: result rows of %d columns in a ring of %d-column rows", width, rl.width))
	}
}

// maxRingBytes bounds the bytes of a ring's rows: their offsets are u32.
// Tests lower it.
var maxRingBytes uint64 = math.MaxUint32

// RingOverflowError reports a row its query's result ring could not take:
// the ring's rows would pass maxRingBytes (4 GiB). The service fences the
// query, as a fault of its own (gsql.QuarantineSink).
type RingOverflowError struct {
	Bytes uint64 // what the ring's rows would take with the row
	Limit uint64
}

func (e *RingOverflowError) Error() string {
	return fmt.Sprintf("server: a result ring's rows would take %d bytes, past its %d-byte bound", e.Bytes, e.Limit)
}

// putLocked copies one encoded row in after the newest; the caller has made
// sure rl.n < rl.cap.
func (rl *resultLog) putLocked(row []byte) error {
	if rl.n == rl.slots || rl.used+len(row) > len(rl.dataLocked()) {
		if err := rl.growLocked(len(row)); err != nil {
			return err
		}
	}
	at := rl.offLocked(rl.n)
	binary.LittleEndian.PutUint32(rl.store[4*((rl.head+rl.n)%rl.slots):], uint32(at))
	data := rl.dataLocked()
	if k := copy(data[at:], row); k < len(row) {
		copy(data, row[k:])
	}
	rl.n++
	rl.used += len(row)
	return nil
}

// growLocked re-linearizes the rows into a larger store with room for one
// more row of need bytes. When every slot is taken the slots grow by a
// quarter, up to cap — a thousand rings filling in lockstep carry a thousand
// times the slack, so the step is small — with bytes for as many rows of the
// mean size so far; when only the bytes ran out (rows carrying strings
// vary), the bytes grow by a quarter. The bytes stop at maxRingBytes; rows
// that would pass it are a *RingOverflowError.
func (rl *resultLog) growLocked(need int) error {
	if want := uint64(rl.used + need); want > maxRingBytes {
		return &RingOverflowError{Bytes: want, Limit: maxRingBytes}
	}
	slots, size := rl.slots, len(rl.dataLocked())
	if rl.n == slots {
		slots = min(slots+max(slots/4, 16), rl.cap)
		mean := (rl.used + need + rl.n) / (rl.n + 1) // rounded up
		size = max(size, slots*mean)
	}
	if rl.used+need > size {
		size = max(rl.used+need, size+size/4)
	}
	rl.resizeLocked(slots, int(min(uint64(size), maxRingBytes)))
	return nil
}

// resizeLocked re-linearizes the rows into a store of slots offsets and size
// (at most maxRingBytes) bytes. Slots and bytes are one allocation, so a
// resize allocates once.
func (rl *resultLog) resizeLocked(slots, size int) {
	store := make([]byte, 4*slots+size)
	for i := 0; i < rl.n; i++ {
		binary.LittleEndian.PutUint32(store[4*i:], uint32(rl.spanLocked(0, i)))
	}
	rl.appendSpanLocked(store[4*slots:4*slots], 0, rl.n)
	rl.store, rl.slots, rl.head = store, slots, 0
}

// shrinkLocked shrinks the bytes when the rows fill under a quarter of them
// — a burst of long strings, evicted by short rows — to twice what the rows
// use, or to every slot at their mean size if that is more, so a burst does
// not keep its bytes for the life of the ring. The rows must double before
// the bytes grow again.
func (rl *resultLog) shrinkLocked() {
	if size := len(rl.dataLocked()); rl.n > 0 && 4*rl.used < size {
		mean := (rl.used + rl.n - 1) / rl.n // rounded up
		if fit := max(2*rl.used, rl.slots*mean); fit <= size/2 {
			rl.resizeLocked(rl.slots, fit)
		}
	}
}

// dropLocked forgets the k oldest rows.
func (rl *resultLog) dropLocked(k int) {
	rl.used -= rl.spanLocked(0, k)
	rl.head = (rl.head + k) % rl.slots
	rl.n -= k
	rl.base += uint64(k)
}

// appendRows adds the rows one apply of the runtime emitted — a bucket
// flush, usually — under one lock acquisition and wakes the waiters once,
// enforcing the slow-consumer policies whenever the ring is full. The bytes
// are copied in; rows stays the caller's. A row the ring cannot take (a
// *RingOverflowError) ends the call: the rows before it stay appended.
//
// fence, when non-nil, is the owning incarnation's teardown fence. A writer
// parked here while its incarnation is torn down must drop the rest of its
// rows when it wakes — even if a successor has already thawed the ring —
// because the successor's WAL replay re-derives those rows itself.
func (rl *resultLog) appendRows(rows *rowBuf, fence *atomic.Bool) (err error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.frozen || rl.closed || rows.n == 0 {
		return nil
	}
	rl.setWidthLocked(rows.width)
	var now time.Time // read when an eviction first needs it, and after each wait
fill:
	for i, at := 0, 0; i < rows.n; {
		if rl.n >= rl.cap {
			if now.IsZero() {
				now = time.Now()
			}
			if rl.evictLocked(min(rows.n-i, rl.n), now) == 0 {
				// A holder refused the eviction; wait for it to advance, be
				// removed, or run out of stall budget. What this call
				// appended or evicted so far is announced first.
				rl.broadcast()
				wake := rl.park()
				wait := rl.minBudgetLocked(now)
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
					return nil
				}
				now = time.Now()
				continue
			}
		}
		for ; i < rows.n && rl.n < rl.cap; i++ {
			end := rows.rowEnd(at)
			if err = rl.putLocked(rows.data[at:end]); err != nil {
				break fill
			}
			at = end
		}
	}
	rl.shrinkLocked()
	rl.broadcast()
	return err
}

// evictLocked drops up to want (≥ 1) of the oldest rows in one pass and
// returns how many it dropped: the rows below the lowest cursor held by a
// PolicyBlock subscriber or by a PolicyDisconnect one with stall budget
// left. It books what dropping them one at a time would: a holder the
// eviction reaches is stamped stalled (and an expired PolicyDisconnect one
// force-removed), and each PolicyDropOldest subscriber it passes sheds the
// rows at or above its cursor, in one count. Only appendRows evicts, and it
// broadcasts before parking and when done.
func (rl *resultLog) evictLocked(want int, now time.Time) int {
	expired := func(s *subscriber) bool {
		stalled := s.stalled
		if stalled.IsZero() {
			stalled = now
		}
		return now.Sub(stalled) >= s.budget
	}
	k := uint64(want)
	for s := range rl.subs {
		if s.removed || s.policy == PolicyDropOldest || (s.policy == PolicyDisconnect && expired(s)) {
			continue
		}
		if held := max(s.cursor, rl.base) - rl.base; held < k {
			k = held
		}
	}
	// Evicting row by row, each row's eviction looks at the subscribers at
	// or below it; the refused one (when k < want) looks too.
	reach := rl.base + k
	if k == uint64(want) {
		reach--
	}
	for s := range rl.subs {
		if s.removed || s.cursor > reach {
			continue
		}
		switch s.policy {
		case PolicyDropOldest:
			// Shed [max(cursor, base), base+k); it will observe the gap at
			// its next fetch.
			if from := max(s.cursor, rl.base); from < rl.base+k {
				if !s.shed {
					s.shed, s.shedFrom = true, s.cursor
				}
				if rl.onShed != nil {
					rl.onShed(rl.base + k - from)
				}
			}
		case PolicyBlock:
			if s.stalled.IsZero() {
				s.stalled = now
			}
		case PolicyDisconnect:
			if expired(s) {
				s.removed = true
				if rl.onDisconnect != nil {
					rl.onDisconnect()
				}
			} else if s.stalled.IsZero() {
				s.stalled = now
			}
		}
	}
	if k > 0 {
		rl.dropLocked(int(k))
	}
	return int(k)
}

// minBudgetLocked returns the shortest remaining stall budget among
// blocking PolicyDisconnect holders, or 0 when only PolicyBlock holders
// remain (wait without a deadline).
func (rl *resultLog) minBudgetLocked(now time.Time) time.Duration {
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
// — onto b as an StRow frame. The rows are in their wire encoding already:
// the offsets give the cut, and the bytes are copied behind the header.
func (rl *resultLog) appendRowFrameLocked(b []byte, query uint32, start uint64, max int) ([]byte, int) {
	i := int(start - rl.base)
	max = min(max, rl.n-i)
	at := len(b)
	b = ingest.ReserveSealed(b)
	b = append(b, StRow, 0, 0, 0, 0) // request id 0: rows answer no request
	b = appendRowBatchHeader(b, query, start, rl.width, 0)
	room := MaxControlFrame - (len(b) - at - ingest.SealedHeaderSize)
	n := 1
	for n < max && rl.spanLocked(i, i+n+1) <= room {
		n++
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], uint32(n))
	b = rl.appendSpanLocked(b, i, i+n)
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
		rl.base, rl.head, rl.n, rl.used = k+1, 0, 0, 0
	} else if k < rl.endLocked() {
		n := int(k - rl.base + 1)
		rl.n, rl.used = n, rl.spanLocked(0, n)
	}
	rl.broadcast()
}

// restoreRows replaces the ring contents with a state file's ring image (cold
// start); of more rows than the ring retains, the newest are kept. An image
// whose rows the ring cannot take is a *RingOverflowError.
func (rl *resultLog) restoreRows(base uint64, rows rowBuf) (err error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	first := max(rows.n-rl.cap, 0)
	rl.base, rl.head, rl.n, rl.used = base+uint64(first), 0, 0, 0
	if first < rows.n {
		rl.setWidthLocked(rows.width)
	}
	for i, at := 0, 0; i < rows.n && err == nil; i++ {
		end := rows.rowEnd(at)
		if i >= first {
			err = rl.putLocked(rows.data[at:end])
		}
		at = end
	}
	rl.shrinkLocked()
	rl.broadcast()
	return err
}

// appendSnapshot appends the ring's image to a state file under
// construction, in queryState's layout: base, end, row count, rows (each its
// u16 width, then its values).
func (rl *resultLog) appendSnapshot(b []byte) []byte {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b = binary.LittleEndian.AppendUint64(b, rl.base)
	b = binary.LittleEndian.AppendUint64(b, rl.endLocked())
	b = binary.LittleEndian.AppendUint32(b, uint32(rl.n))
	for i := 0; i < rl.n; i++ {
		b = rl.appendSpanLocked(codec.AppendU16(b, uint16(rl.width)), i, i+1)
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
