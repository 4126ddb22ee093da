package server

// The result ring against a reference model. The model keeps the rows as
// gsql tuples and evicts one row at a time, booking sheds, gaps and
// disconnects per row; its frames and snapshots are encoded from the tuples
// with AppendMsg and appendRow. The ring keeps the rows in their wire
// encoding and evicts in bulk. A tape of operations drives both, and every
// frame, gap, status and snapshot must come out byte-identical.

import (
	"bytes"
	"math"
	"testing"
	"time"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/core"
)

// encodeRows encodes rows the way the emit sink does.
func encodeRows(rows []gsql.Tuple) rowBuf {
	var rb rowBuf
	for _, row := range rows {
		rb.add(row)
	}
	return rb
}

// restore loads rows as a state file's ring image starting at cursor base.
func (rl *resultLog) restore(base uint64, rows []gsql.Tuple) { rl.restoreRows(base, encodeRows(rows)) }

// tuples decodes rb's rows.
func (rb *rowBuf) tuples(t *testing.T) []gsql.Tuple {
	t.Helper()
	out := make([]gsql.Tuple, rb.n)
	d := codec.NewDec(rb.data, "rows")
	for i := range out {
		out[i] = make(gsql.Tuple, rb.width)
		readValues(&d, out[i])
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return out
}

// appendRow writes u16 column count then each value: a row of a state
// file's ring image.
func appendRow(b []byte, row gsql.Tuple) []byte {
	b = codec.AppendU16(b, uint16(len(row)))
	for _, v := range row {
		b = appendValue(b, v)
	}
	return b
}

// modelSub is the model's subscriber. A PolicyDisconnect subscriber with a
// budget under an hour runs it out whenever it holds up the ring (the ring
// parks on it until it does); one with a longer budget holds like
// PolicyBlock.
type modelSub struct {
	policy   Policy
	budget   time.Duration
	cursor   uint64
	removed  bool
	shed     bool
	shedFrom uint64
}

func (s *modelSub) holds() bool {
	return !s.removed && (s.policy == PolicyBlock || (s.policy == PolicyDisconnect && s.budget >= time.Hour))
}

// modelRing is the reference result ring.
type modelRing struct {
	cap         int
	base        uint64
	rows        []gsql.Tuple
	subs        []*modelSub
	frozen      bool
	shed        uint64
	disconnects int
}

func (m *modelRing) end() uint64 { return m.base + uint64(len(m.rows)) - 1 }

// room returns how many of k rows an append takes without waiting for a
// subscriber that holds indefinitely.
func (m *modelRing) room(k int) int {
	n, base := len(m.rows), m.base
	for j := 0; j < k; j++ {
		if n == m.cap {
			for _, s := range m.subs {
				if s.holds() && s.cursor <= base {
					return j
				}
			}
			n--
			base++
		}
		n++
	}
	return k
}

// append adds rows one at a time, evicting the oldest row for each once
// the ring is full.
func (m *modelRing) append(rows []gsql.Tuple) {
	if m.frozen {
		return
	}
	for _, row := range rows {
		if len(m.rows) == m.cap {
			for _, s := range m.subs {
				if !s.removed && s.policy == PolicyDisconnect && s.cursor <= m.base {
					s.removed = true
					m.disconnects++
				}
			}
			for _, s := range m.subs {
				if !s.removed && s.policy == PolicyDropOldest && s.cursor <= m.base {
					if !s.shed {
						s.shed, s.shedFrom = true, s.cursor
					}
					m.shed++
				}
			}
			m.rows = m.rows[1:]
			m.base++
		}
		m.rows = append(m.rows, row)
	}
}

// canFetch reports whether a fetch returns at once instead of waiting for
// rows.
func (m *modelRing) canFetch(s *modelSub) bool {
	return s.removed || s.shed || s.cursor <= m.end()
}

// fetch is what resultLog.fetch returns, the frame built by AppendMsg.
func (m *modelRing) fetch(s *modelSub, query uint32, max int) (frame []byte, n int, start, gapFrom uint64, st fetchStatus) {
	switch {
	case s.removed:
		return nil, 0, 0, 0, fetchRemoved
	case s.shed:
		gapFrom, s.shed, s.cursor = s.shedFrom, false, m.base
		return nil, 0, m.base, gapFrom, fetchGap
	case s.cursor < m.base:
		gapFrom, s.cursor = s.cursor, m.base
		return nil, 0, m.base, gapFrom, fetchGap
	}
	start = s.cursor
	rows := m.rows[start-m.base:]
	max = min(max, len(rows))
	body := len(appendMsgBody(nil, &Msg{Type: StRow, Rows: rows[:1]}))
	for n = 1; n < max; n++ {
		var row []byte
		for _, v := range rows[n] {
			row = appendValue(row, v)
		}
		if body+len(row) > MaxControlFrame {
			break
		}
		body += len(row)
	}
	frame = AppendMsg(nil, &Msg{Type: StRow, Query: query, Cursor: start, Rows: rows[:n]})
	return frame, n, start, 0, fetchRows
}

func (m *modelRing) truncateTo(k uint64) {
	if k+1 < m.base {
		m.base, m.rows = k+1, nil
	} else if k < m.end() {
		m.rows = m.rows[:k-m.base+1]
	}
}

func (m *modelRing) restore(base uint64, rows []gsql.Tuple) {
	if drop := len(rows) - m.cap; drop > 0 {
		base, rows = base+uint64(drop), rows[drop:]
	}
	m.base, m.rows = base, append([]gsql.Tuple(nil), rows...)
}

// snapshot is the ring image a state file holds.
func (m *modelRing) snapshot() []byte {
	b := codec.AppendU64(nil, m.base)
	b = codec.AppendU32(codec.AppendU64(b, m.end()), uint32(len(m.rows)))
	for _, row := range m.rows {
		b = appendRow(b, row)
	}
	return b
}

// tapeReader hands out a tape's bytes, then zeros.
type tapeReader struct{ b []byte }

func (r *tapeReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c)
}

func (r *tapeReader) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(r.next())
	}
	return v
}

// value draws NULL, a bool, an int, a float (−0, ±Inf and NaN payloads
// among them) or a string — empty, short, or long enough to straddle the
// ring's wrap and push a batch past MaxControlFrame.
func (r *tapeReader) value() gsql.Value {
	switch r.next() % 9 {
	case 0:
		return gsql.Value{}
	case 1:
		return gsql.Value{T: gsql.TBool, I: int64(r.next() & 1)}
	case 2:
		return gsql.Int(int64(r.u64()))
	case 3:
		special := []uint64{
			math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
			0x7ff8000000000001, 0xfff4000000000abc, math.Float64bits(math.NaN()),
		}
		return gsql.Float(math.Float64frombits(special[r.next()%len(special)]))
	case 4:
		return gsql.Float(math.Float64frombits(r.u64()))
	case 5:
		return gsql.Str("")
	case 6:
		return gsql.Str(string(bytes.Repeat([]byte{byte('a' + r.next()%26)}, r.next()%12)))
	case 7:
		return gsql.Str(string(bytes.Repeat([]byte{byte(r.next())}, r.next()*97)))
	default:
		return gsql.Int(int64(r.next()))
	}
}

func (r *tapeReader) rows(k, width int) []gsql.Tuple {
	rows := make([]gsql.Tuple, k)
	for i := range rows {
		rows[i] = make(gsql.Tuple, width)
		for j := range rows[i] {
			rows[i][j] = r.value()
		}
	}
	return rows
}

// runRingTape decodes tape into ring operations and runs them against a
// resultLog and the model, failing on the first difference.
func runRingTape(t *testing.T, tape []byte) {
	r := &tapeReader{b: tape}
	capacity, width := 1+r.next()%12, 1+r.next()%5
	rl := newResultLog(capacity)
	var shed uint64
	disconnects := 0
	rl.onShed = func(n uint64) { shed += n }
	rl.onDisconnect = func() { disconnects++ }
	m := &modelRing{cap: capacity, base: 1}
	type pair struct {
		s       *subscriber
		m       *modelSub
		fetched int // rows of the last fetch, not yet advanced
	}
	var subs []*pair
	var pending rowBuf // reused across flushes, as a query run's is
	var frame []byte
	for op := 0; len(r.b) > 0; op++ {
		switch code := r.next() % 11; code {
		case 0, 1, 2: // a flush
			rows := r.rows(m.room(r.next()%(2*capacity+2)), width)
			pending.reset()
			for _, row := range rows {
				pending.add(row)
			}
			rl.appendRows(&pending, nil)
			m.append(rows)
		case 3: // subscribe
			policy := Policy(r.next() % 3)
			var budget time.Duration
			if policy == PolicyDisconnect && r.next()%2 == 1 {
				budget = 24 * time.Hour
			}
			var cursor uint64
			switch r.next() % 4 {
			case 0: // from the oldest retained row
			case 1:
				cursor = m.base + uint64(r.next()%(capacity+1))
			case 2:
				cursor = max(m.base, 2) - 1 - uint64(r.next()%2)
			default:
				cursor = m.end() + 1 + uint64(r.next()%3)
			}
			if len(subs) < 5 {
				ms := &modelSub{policy: policy, budget: budget, cursor: cursor}
				if cursor == 0 {
					ms.cursor = m.base
				}
				m.subs = append(m.subs, ms)
				subs = append(subs, &pair{s: rl.subscribe(cursor, policy, budget), m: ms})
			}
		case 4, 5: // fetch
			if len(subs) == 0 {
				continue
			}
			p := subs[r.next()%len(subs)]
			max := 1 + r.next()%(capacity+2)
			if !m.canFetch(p.m) {
				continue
			}
			wantFrame, wantN, wantStart, wantGap, wantSt := m.fetch(p.m, 9, max)
			var n int
			var start, gapFrom uint64
			var st fetchStatus
			frame, n, start, gapFrom, st = rl.fetch(p.s, 9, max, frame)
			if st != wantSt || n != wantN || start != wantStart || gapFrom != wantGap {
				t.Fatalf("op %d: fetch: status %d, %d rows at %d, gap from %d; model: status %d, %d rows at %d, gap from %d",
					op, st, n, start, gapFrom, wantSt, wantN, wantStart, wantGap)
			}
			if st == fetchRows && !bytes.Equal(frame, wantFrame) {
				t.Fatalf("op %d: frame of %d rows at %d differs from the model's (%d vs %d bytes)", op, n, start, len(frame), len(wantFrame))
			}
			p.fetched = n
		case 6: // advance past some of what was fetched
			if len(subs) == 0 {
				continue
			}
			p := subs[r.next()%len(subs)]
			if p.fetched == 0 {
				continue
			}
			k := uint64(r.next() % (p.fetched + 1))
			rl.advance(p.s, k)
			p.m.cursor += k
			p.fetched = 0
		case 7: // truncate below base, inside the ring, or past its end
			var k uint64
			switch r.next() % 3 {
			case 0:
				k = max(m.base, 2) - 2
			case 1:
				k = m.base - 1 + uint64(r.next()%(len(m.rows)+1))
			default:
				k = m.end() + uint64(r.next()%3)
			}
			rl.truncateTo(k)
			m.truncateTo(k)
		case 8: // restore an image, perhaps of more rows than the ring holds
			base := 1 + uint64(r.next())
			rows := r.rows(r.next()%(2*capacity+1), width)
			image := codec.AppendU32(nil, uint32(len(rows)))
			for _, row := range rows {
				image = appendRow(image, row)
			}
			d := codec.NewDec(image, "ring image")
			var rb rowBuf
			readRingRows(&d, &rb)
			if err := d.Done(); err != nil {
				t.Fatalf("op %d: ring image: %v", op, err)
			}
			rl.restoreRows(base, rb)
			m.restore(base, rows)
		case 9: // snapshot
			if got, want := rl.appendSnapshot(nil), m.snapshot(); !bytes.Equal(got, want) {
				t.Fatalf("op %d: snapshot differs from the model's (%d vs %d bytes)", op, len(got), len(want))
			}
		default: // freeze, thaw, or unsubscribe
			switch r.next() % 3 {
			case 0:
				rl.freeze()
				m.frozen = true
			case 1:
				rl.thaw()
				m.frozen = false
			default:
				if len(subs) > 0 {
					i := r.next() % len(subs)
					rl.unsubscribe(subs[i].s)
					subs[i].m.removed = true
					m.subs = append(m.subs[:i], m.subs[i+1:]...)
					subs = append(subs[:i], subs[i+1:]...)
				}
			}
		}
		if base, end := rl.bounds(); base != m.base || end != m.end() {
			t.Fatalf("op %d: ring holds [%d, %d], model [%d, %d]", op, base, end, m.base, m.end())
		}
		if shed != m.shed || disconnects != m.disconnects {
			t.Fatalf("op %d: %d rows shed, %d disconnects; model %d, %d", op, shed, disconnects, m.shed, m.disconnects)
		}
	}
	if got, want := rl.appendSnapshot(nil), m.snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("final snapshot differs from the model's (%d vs %d bytes)", len(got), len(want))
	}
}

// TestResultLogMatchesModel runs seeded tapes of ring operations against the
// reference model.
func TestResultLogMatchesModel(t *testing.T) {
	tapes := 300
	if testing.Short() {
		tapes = 40
	}
	for seed := range tapes {
		rng := core.NewRNG(uint64(seed) + 1)
		tape := make([]byte, 200+rng.Intn(2000))
		for i := range tape {
			tape[i] = byte(rng.Uint64())
		}
		runRingTape(t, tape)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// FuzzResultLogOps decodes the fuzz input into the same tape of ring
// operations and checks the ring against the model.
func FuzzResultLogOps(f *testing.F) {
	for seed := range 8 {
		rng := core.NewRNG(uint64(seed) + 101)
		tape := make([]byte, 64+rng.Intn(512))
		for i := range tape {
			tape[i] = byte(rng.Uint64())
		}
		f.Add(tape)
	}
	f.Add([]byte{})
	f.Fuzz(runRingTape)
}

// TestResultLogBulkEvictionMatchesRowByRow: one flush that evicts past every
// policy — two drop-oldest subscribers at different cursors, a disconnect
// subscriber with no budget and one whose 30 ms budget runs out while the
// flush waits on it, and a blocking subscriber beyond the evicted rows —
// books the sheds, gaps and disconnects evicting row by row gives.
func TestResultLogBulkEvictionMatchesRowByRow(t *testing.T) {
	rl := newResultLog(8)
	m := &modelRing{cap: 8, base: 1}
	var shed uint64
	disconnects := 0
	rl.onShed = func(n uint64) { shed += n }
	rl.onDisconnect = func() { disconnects++ }
	row := func(i int) gsql.Tuple { return gsql.Tuple{gsql.Int(int64(i)), gsql.Str("r")} }
	var fill []gsql.Tuple
	for i := 1; i <= 8; i++ {
		fill = append(fill, row(i))
	}
	rows := encodeRows(fill)
	rl.appendRows(&rows, nil)
	m.append(fill)
	type pair struct {
		s *subscriber
		m *modelSub
	}
	var subs []pair
	for _, sp := range []modelSub{
		{policy: PolicyDropOldest, cursor: 1},
		{policy: PolicyDropOldest, cursor: 6},
		{policy: PolicyDisconnect, cursor: 3},
		{policy: PolicyDisconnect, budget: 30 * time.Millisecond, cursor: 4},
		{policy: PolicyBlock, cursor: 13},
	} {
		ms := sp
		m.subs = append(m.subs, &ms)
		subs = append(subs, pair{rl.subscribe(sp.cursor, sp.policy, sp.budget), &ms})
	}
	var flush []gsql.Tuple
	for i := 9; i <= 20; i++ {
		flush = append(flush, row(i))
	}
	rows = encodeRows(flush)
	began := time.Now()
	rl.appendRows(&rows, nil)
	if waited := time.Since(began); waited < 30*time.Millisecond {
		t.Errorf("the flush waited %v, not the 30 ms budget", waited)
	}
	m.append(flush)
	if shed != m.shed || disconnects != m.disconnects {
		t.Fatalf("%d rows shed, %d disconnects; row by row: %d, %d", shed, disconnects, m.shed, m.disconnects)
	}
	if shed != 12+7 || disconnects != 2 {
		t.Fatalf("%d rows shed, %d disconnects; want 19 and 2", shed, disconnects)
	}
	for i, p := range subs {
		wantFrame, wantN, wantStart, wantGap, wantSt := m.fetch(p.m, 9, 100)
		frame, n, start, gapFrom, st := rl.fetch(p.s, 9, 100, nil)
		if st != wantSt || n != wantN || start != wantStart || gapFrom != wantGap || !bytes.Equal(frame, wantFrame) {
			t.Errorf("subscriber %d: status %d, %d rows at %d, gap from %d; row by row: status %d, %d rows at %d, gap from %d",
				i, st, n, start, gapFrom, wantSt, wantN, wantStart, wantGap)
		}
	}
}

// TestResultLogBytesPerRow: a full ring of 5-column integer rows keeps each
// row in 49 bytes (45 of values, 4 of offset), well under 64; as gsql
// values they took 200.
func TestResultLogBytesPerRow(t *testing.T) {
	const rows = 1 << 12
	rl := newResultLog(rows)
	for first := 0; first < rows; first += 64 {
		rb := encodeRows(flushRows(first, 64))
		rl.appendRows(&rb, nil)
	}
	if rl.n != rows {
		t.Fatalf("ring holds %d rows, want %d", rl.n, rows)
	}
	if per := float64(cap(rl.store)) / rows; per > 64 {
		t.Fatalf("a full ring takes %.1f bytes per 5-column integer row, want <= 64", per)
	}
	// The frames out of it are what encoding the rows gives.
	sub := rl.subscribe(0, PolicyBlock, 0)
	frame, n, _, _, _ := rl.fetch(sub, 1, 10, nil)
	body, _, err := ingest.DecodeSealed(frame, MaxControlFrame)
	if err != nil {
		t.Fatal(err)
	}
	want := appendMsgBody(nil, &Msg{Type: StRow, Cursor: 1, Query: 1, Rows: flushRows(0, n)})
	if !bytes.Equal(body, want) {
		t.Fatal("the first frame out of a full ring is not the rows' encoding")
	}
}

// TestResultLogShrinksAfterLongRows: the bytes a burst of long strings grew
// come back once short rows have evicted it, and the ring keeps the model's
// rows and frames throughout.
func TestResultLogShrinksAfterLongRows(t *testing.T) {
	const capacity = 64
	rl := newResultLog(capacity)
	m := &modelRing{cap: capacity, base: 1}
	sub := rl.subscribe(0, PolicyDropOldest, 0)
	ms := &modelSub{policy: PolicyDropOldest, cursor: 1}
	m.subs = append(m.subs, ms)
	flush := func(first, n int, s string) {
		t.Helper()
		rows := make([]gsql.Tuple, n)
		for i := range rows {
			rows[i] = gsql.Tuple{gsql.Int(int64(first + i)), gsql.Str(s)}
		}
		rb := encodeRows(rows)
		rl.appendRows(&rb, nil)
		m.append(rows)
		if got, want := rl.appendSnapshot(nil), m.snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("after rows %d..%d: snapshot differs from the model's (%d vs %d bytes)", first, first+n-1, len(got), len(want))
		}
		wantFrame, wantN, wantStart, wantGap, wantSt := m.fetch(ms, 9, capacity)
		frame, n, start, gapFrom, st := rl.fetch(sub, 9, capacity, nil)
		if st != wantSt || n != wantN || start != wantStart || gapFrom != wantGap || !bytes.Equal(frame, wantFrame) {
			t.Fatalf("after rows %d..%d: fetch differs from the model's", first, first+n-1)
		}
	}
	long := string(bytes.Repeat([]byte{'x'}, 4096))
	for first := 1; first <= capacity; first += 16 {
		flush(first, 16, long)
	}
	if high := len(rl.store); high < capacity*len(long) {
		t.Fatalf("a ring of %d long rows takes %d bytes", capacity, high)
	}
	for first := capacity + 1; first <= 5*capacity; first += capacity {
		flush(first, capacity, "s")
	}
	if got, most := len(rl.store), 4*rl.slots+2*rl.used; got > most {
		t.Fatalf("after short rows evicted the long ones the ring keeps %d bytes for %d in use, want <= %d", got, rl.used, most)
	}
	flush(5*capacity+1, 8, long) // and grows again
}

// TestResultLogRefusedEvictionMidFlush: a flush that a blocking subscriber
// stops halfway has booked only the rows it evicted. A drop-oldest
// subscriber at the holder's cursor has lost nothing yet and fetches rows,
// not a gap, while the flush waits; once the holder leaves, the rest of the
// flush books what evicting row by row gives.
func TestResultLogRefusedEvictionMidFlush(t *testing.T) {
	rl := newResultLog(4)
	m := &modelRing{cap: 4, base: 1}
	var shed uint64
	rl.onShed = func(n uint64) { shed += n }
	row := func(i int) gsql.Tuple { return gsql.Tuple{gsql.Int(int64(i))} }
	fill := []gsql.Tuple{row(1), row(2), row(3), row(4)}
	rows := encodeRows(fill)
	rl.appendRows(&rows, nil)
	m.append(fill)
	type pair struct {
		s *subscriber
		m *modelSub
	}
	var subs []pair
	for _, sp := range []modelSub{
		{policy: PolicyBlock, cursor: 3},
		{policy: PolicyDropOldest, cursor: 3},
		{policy: PolicyDropOldest, cursor: 1},
	} {
		ms := sp
		m.subs = append(m.subs, &ms)
		subs = append(subs, pair{rl.subscribe(sp.cursor, sp.policy, sp.budget), &ms})
	}
	flush := []gsql.Tuple{row(5), row(6), row(7), row(8)}
	rows = encodeRows(flush)
	done := make(chan struct{})
	go func() { rl.appendRows(&rows, nil); close(done) }()
	waitFor(t, 5*time.Second, "the flush to stop at the blocking subscriber", func() bool {
		base, end := rl.bounds()
		return base == 3 && end == 6
	})
	m.append(flush[:m.room(len(flush))])
	check := func(when string) {
		t.Helper()
		rl.mu.Lock()
		got := shed
		rl.mu.Unlock()
		if got != m.shed {
			t.Fatalf("%s: %d rows shed, row by row %d", when, got, m.shed)
		}
		for i, p := range subs[1:] {
			wantFrame, wantN, wantStart, wantGap, wantSt := m.fetch(p.m, 9, 100)
			frame, n, start, gapFrom, st := rl.fetch(p.s, 9, 100, nil)
			if st != wantSt || n != wantN || start != wantStart || gapFrom != wantGap || !bytes.Equal(frame, wantFrame) {
				t.Fatalf("%s: drop-oldest subscriber %d: status %d, %d rows at %d, gap from %d; row by row: status %d, %d rows at %d, gap from %d",
					when, i, st, n, start, gapFrom, wantSt, wantN, wantStart, wantGap)
			}
		}
	}
	check("while the flush waits")
	rl.unsubscribe(subs[0].s)
	subs[0].m.removed = true
	<-done
	m.append(flush[2:])
	check("after the flush")
}

// TestResultLogFrameCut: a batch takes rows while its body stays within
// MaxControlFrame, to the byte, and always takes one.
func TestResultLogFrameCut(t *testing.T) {
	// A row of one string value of s bytes encodes to 5+s bytes; a body is
	// 23 bytes of headers and its rows.
	str := func(s int) gsql.Tuple { return gsql.Tuple{gsql.Str(string(bytes.Repeat([]byte{'x'}, s)))} }
	for _, tc := range []struct {
		sizes []int
		want  int
	}{
		{[]int{30000, MaxControlFrame - 23 - 30000 - 10}, 2},
		{[]int{30000, MaxControlFrame - 23 - 30000 - 10 + 1}, 1},
		{[]int{MaxControlFrame, 5}, 1},
		{[]int{100, 100, MaxControlFrame - 23 - 210 - 5, 0}, 3},
	} {
		var in []gsql.Tuple
		for _, s := range tc.sizes {
			in = append(in, str(s))
		}
		// One row ahead of them is evicted, so the rows wrap around the store.
		rl := newResultLog(len(in))
		m := &modelRing{cap: len(in), base: 1}
		rl.append(str(1))
		m.append([]gsql.Tuple{str(1)})
		rows := encodeRows(in)
		rl.appendRows(&rows, nil)
		m.append(in)
		sub := rl.subscribe(0, PolicyBlock, 0)
		ms := &modelSub{policy: PolicyBlock, cursor: m.base}
		for base := m.base; base <= m.end(); {
			wantFrame, wantN, _, _, _ := m.fetch(ms, 1, 100)
			frame, n, _, _, _ := rl.fetch(sub, 1, 100, nil)
			if n != wantN || !bytes.Equal(frame, wantFrame) {
				t.Fatalf("sizes %v: a batch at %d took %d rows, the model %d", tc.sizes, base, n, wantN)
			}
			if base == m.base && n != tc.want {
				t.Fatalf("sizes %v: the first batch took %d rows, want %d", tc.sizes, n, tc.want)
			}
			rl.advance(sub, uint64(n))
			ms.cursor += uint64(n)
			base += uint64(n)
		}
	}
}
