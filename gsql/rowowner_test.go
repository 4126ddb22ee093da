package gsql

import (
	"fmt"
	"testing"
)

// TestSinkRowsAreRetainSafe states the sink contract the engine's buffer
// reuse must never break: a row handed to a Statement.Start or
// MultiRun.Attach sink is the sink's to keep. The first pass retains every
// row it is handed, by reference, across many bucket flushes — through low
// table evictions, recycled groups and the batch path — and only at the end
// compares them bit for bit with a second pass that deep-copied each row on
// receipt. A run that cut rows from scratch it later reuses would pass any
// test that looks at a row inside the sink and fail this one.
func TestSinkRowsAreRetainSafe(t *testing.T) {
	const (
		query   = `select tb, dstIP, destPort, count(*), sum(len), min(len), avg(float(len)) from TCP group by time/1 as tb, dstIP, destPort`
		buckets = 40
		perSec  = 300
	)
	var tuples []Tuple
	for sec := int64(0); sec < buckets; sec++ {
		for i := int64(0); i < perSec; i++ {
			// Group population varies by bucket, so recycled groups and
			// buffers change hands between keys of different buckets.
			dst := (i*7 + sec) % (40 + sec%13)
			tuples = append(tuples, pkt(sec, dst, 80+i%3, 64+(i*31+sec)%1400))
		}
	}
	// Few slots: most buckets overflow the low table into the high level.
	opts := Options{LowLevelSlots: 32}

	type feed func(push func(Tuple) error, pushBatch func(*Batch) (int, error)) error
	scalar := func(push func(Tuple) error, _ func(*Batch) (int, error)) error {
		for _, tp := range tuples {
			if err := push(tp); err != nil {
				return err
			}
		}
		return nil
	}
	batched := func(_ func(Tuple) error, pushBatch func(*Batch) (int, error)) error {
		b, err := NewBatch(PacketSchema("TCP"))
		if err != nil {
			return err
		}
		for lo := 0; lo < len(tuples); lo += 128 {
			b.Reset()
			for _, tp := range tuples[lo:min(lo+128, len(tuples))] {
				if err := b.Append(tp); err != nil {
					return err
				}
			}
			if _, err := pushBatch(b); err != nil {
				return err
			}
		}
		return nil
	}

	// collect runs the query once through start, retaining rows as handed
	// (copy=false) or deep-copied on receipt (copy=true).
	collect := func(t *testing.T, start func(sink func(Tuple) error) (feedTo func(feed) error), f feed, copyRows bool) []Tuple {
		t.Helper()
		var rows []Tuple
		feedTo := start(func(row Tuple) error {
			if copyRows {
				row = append(Tuple(nil), row...)
			}
			rows = append(rows, row)
			return nil
		})
		if err := feedTo(f); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	startSerial := func(sink func(Tuple) error) func(feed) error {
		e := mkEngine(t)
		st, err := e.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		run := st.Start(sink, opts)
		return func(f feed) error {
			if err := f(run.Push, run.PushBatch); err != nil {
				return err
			}
			return run.Close()
		}
	}
	startMulti := func(sink func(Tuple) error) func(feed) error {
		m, err := NewMultiRun(mkEngine(t), "TCP", opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Attach(query, 0, sink); err != nil {
			t.Fatal(err)
		}
		// A second member with another shape shares the pass.
		if _, err := m.Attach(`select tb, count(*) from TCP group by time/1 as tb`, 0, func(Tuple) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return func(f feed) error {
			if err := f(m.Push, m.PushBatch); err != nil {
				return err
			}
			return m.CloseAll()
		}
	}

	for _, rt := range []struct {
		name  string
		start func(func(Tuple) error) func(feed) error
	}{{"Statement.Start", startSerial}, {"MultiRun.Attach", startMulti}} {
		for _, fd := range []struct {
			name string
			f    feed
		}{{"Push", scalar}, {"PushBatch", batched}} {
			t.Run(fmt.Sprintf("%s/%s", rt.name, fd.name), func(t *testing.T) {
				kept := collect(t, rt.start, fd.f, false)
				want := collect(t, rt.start, fd.f, true)
				if len(kept) < buckets*40 {
					t.Fatalf("only %d rows emitted", len(kept))
				}
				if len(kept) != len(want) {
					t.Fatalf("retaining run emitted %d rows, copying run %d", len(kept), len(want))
				}
				for i := range want {
					if len(kept[i]) != len(want[i]) {
						t.Fatalf("row %d: width %d, want %d", i, len(kept[i]), len(want[i]))
					}
					for j := range want[i] {
						if kept[i][j] != want[i][j] {
							t.Fatalf("row %d col %d: retained %v, copied-on-receipt %v: the run wrote to a row it had handed out",
								i, j, kept[i][j], want[i][j])
						}
					}
				}
			})
		}
	}
}
