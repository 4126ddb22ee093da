package server

import (
	"sync"
	"testing"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
)

// flushRows builds n result rows of the service's usual shape (a bucket, two
// keys, an integer and a float aggregate), numbered from first.
func flushRows(first, n int) []gsql.Tuple {
	rows := make([]gsql.Tuple, n)
	for i := range rows {
		k := int64(first + i)
		rows[i] = gsql.Tuple{
			{T: gsql.TInt, I: k / 100}, {T: gsql.TInt, I: k}, {T: gsql.TInt, I: 80},
			{T: gsql.TInt, I: 3 * k}, {T: gsql.TFloat, F: float64(k) / 4},
		}
	}
	return rows
}

// TestResultLogSteadyStateAllocs guards the ring on the emit path's steady
// state: full and wrapped, a flush encoded as the emit sink does into a
// reused buffer, appended under a blocking subscriber that then fetches it
// as sealed frames and advances. The encoded rows are copied into the
// circular byte store and out of it into the subscription's own buffer;
// with nobody parked no wake channel is made. Nothing allocates.
func TestResultLogSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	const ringCap, flush = 256, 48
	rl := newResultLog(ringCap)
	sub := rl.subscribe(0, PolicyBlock, 0)
	var (
		frame   []byte
		pending rowBuf
	)
	appendFlush := func(rows []gsql.Tuple) {
		pending.reset()
		for _, row := range rows {
			pending.add(row)
		}
		rl.appendRows(&pending, nil)
	}
	next := 0
	cycle := func() {
		appendFlush(flushRows(next, flush))
		next += flush
		for got := 0; got < flush; {
			var n int
			var st fetchStatus
			frame, n, _, _, st = rl.fetch(sub, 7, 20, frame)
			if st != fetchRows || n == 0 {
				t.Fatalf("fetch: status %d, %d rows", st, n)
			}
			rl.advance(sub, uint64(n))
			got += n
		}
	}
	for i := 0; i < 4*ringCap/flush; i++ { // grow the store to its cap, then wrap it
		cycle()
	}
	if rl.n != ringCap || rl.head == 0 {
		t.Fatalf("ring not full and wrapped after warm-up: n=%d head=%d", rl.n, rl.head)
	}
	// The rows are the engine's, not the ring's: build them outside the
	// measured function, and encode them inside it.
	feeds := make([][]gsql.Tuple, 200)
	for i := range feeds {
		feeds[i] = flushRows(next+i*flush, flush)
	}
	i := 0
	avg := testing.AllocsPerRun(len(feeds)-2, func() {
		appendFlush(feeds[i])
		i++
		for got := 0; got < flush; {
			var n int
			frame, n, _, _, _ = rl.fetch(sub, 7, 20, frame)
			rl.advance(sub, uint64(n))
			got += n
		}
	})
	if avg != 0 {
		t.Errorf("append-a-flush + fetch + advance allocates %.2f objects per flush, want 0", avg)
	}
}

// TestRowFrameSteadyStateAllocs guards the row transport between the ring
// and the client's channel: a batch frame is sealed into a reused buffer and
// decoded through a reused Msg, and the only allocation is the value slab
// the client's rows are cut from — which must be a new one each time,
// because delivered rows are the receiver's to keep.
func TestRowFrameSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	rl := newResultLog(64)
	rows := encodeRows(flushRows(1, 64))
	rl.appendRows(&rows, nil)
	sub := rl.subscribe(0, PolicyBlock, 0)
	var (
		frame []byte
		m     Msg
		kept  []gsql.Tuple
	)
	roundTrip := func() {
		var st fetchStatus
		frame, _, _, _, st = rl.fetch(sub, 7, 64, frame) // the cursor never advances: the same 64 rows
		if st != fetchRows {
			t.Fatalf("fetch: status %d", st)
		}
		body, _, err := ingest.DecodeSealed(frame, MaxControlFrame)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeMsgInto(&m, body); err != nil {
			t.Fatal(err)
		}
		if len(m.Rows) != 64 {
			t.Fatalf("decoded %d rows, want 64", len(m.Rows))
		}
	}
	roundTrip()
	kept = append(kept, m.Rows...) // what a client would have delivered
	if avg := testing.AllocsPerRun(500, roundTrip); avg > 1 {
		t.Errorf("seal + decode of a 64-row batch allocates %.2f objects, want <= 1 (the client's value slab)", avg)
	}
	// Rows delivered from the first frame survived 500 decodes into the same Msg.
	for i, want := range flushRows(1, 64) {
		for j := range want {
			if kept[i][j] != want[j] {
				t.Fatalf("row %d col %d: a delivered row changed under later decodes: %v, want %v", i, j, kept[i][j], want[j])
			}
		}
	}
}

// TestResultLogConcurrentBatches hammers one ring from the emit side and
// from subscription writers at once — the sharing the service has between
// the ingest pump and the runSub goroutines — and checks what each blocking
// subscriber decoded against what was appended, row for row. Run under
// -race -count=10 in ci.sh.
func TestResultLogConcurrentBatches(t *testing.T) {
	const total, flush = 6000, 37
	rl := newResultLog(64) // far smaller than total: the appender parks on the blockers
	rl.onShed = func(uint64) {}
	var blockers sync.WaitGroup
	for b := 0; b < 2; b++ {
		sub := rl.subscribe(1, PolicyBlock, 0)
		blockers.Add(1)
		go func(max int) {
			defer blockers.Done()
			var frame []byte
			var m Msg
			want := uint64(1)
			for want <= total {
				var n int
				var start uint64
				var st fetchStatus
				frame, n, start, _, st = rl.fetch(sub, 1, max, frame)
				if st != fetchRows || start != want {
					t.Errorf("blocking subscriber: status %d at cursor %d, want rows at %d", st, start, want)
					rl.unsubscribe(sub)
					return
				}
				body, _, err := ingest.DecodeSealed(frame, MaxControlFrame)
				if err == nil {
					err = decodeMsgInto(&m, body)
				}
				if err != nil || len(m.Rows) != n {
					t.Errorf("blocking subscriber: frame at %d: %v (%d rows, fetch said %d)", start, err, len(m.Rows), n)
					rl.unsubscribe(sub)
					return
				}
				for i, row := range m.Rows {
					if row[1].I != int64(want)+int64(i) {
						t.Errorf("cursor %d carries row %d", want+uint64(i), row[1].I)
						rl.unsubscribe(sub)
						return
					}
				}
				rl.advance(sub, uint64(n))
				want += uint64(n)
			}
		}(5 + 20*b)
	}
	// A drop-oldest reader that only ever sees gaps and rows in cursor order.
	drop := rl.subscribe(1, PolicyDropOldest, 0)
	dropDone := make(chan struct{})
	go func() {
		defer close(dropDone)
		var frame []byte
		next := uint64(1)
		for {
			var n int
			var start uint64
			var st fetchStatus
			frame, n, start, _, st = rl.fetch(drop, 1, 8, frame)
			switch st {
			case fetchRows:
				if start < next {
					t.Errorf("drop-oldest subscriber went back from %d to %d", next, start)
					return
				}
				rl.advance(drop, uint64(n))
				next = start + uint64(n)
			case fetchGap:
				next = start
			default:
				return // closed
			}
		}
	}()
	for first := 1; first <= total; first += flush {
		rows := encodeRows(flushRows(first, min(flush, total-first+1)))
		rl.appendRows(&rows, nil)
	}
	if _, end := rl.bounds(); end != total {
		t.Fatalf("appended through cursor %d, want %d", end, total)
	}
	// The blockers finish on their own; the drop-oldest reader on close.
	blockers.Wait()
	rl.close()
	<-dropDone
}
