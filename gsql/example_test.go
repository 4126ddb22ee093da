package gsql_test

import (
	"fmt"

	"forwarddecay/gsql"
)

// The paper's §IV-A decayed-count query runs unmodified: quadratic forward
// decay expressed in plain arithmetic, per-minute tumbling buckets via
// `group by time/60`.
func Example() {
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		fmt.Println(err)
		return
	}
	st, err := e.Prepare(`
		select tb, dstIP, destPort,
		       sum(float(len)*(time % 60)*(time % 60))/3600
		from TCP
		group by time/60 as tb, dstIP, destPort`)
	if err != nil {
		fmt.Println(err)
		return
	}

	// The Example 1 stream as packets to destination 10.0.0.1:80 within
	// minute 10 (seconds 603..608 → in-bucket offsets 3..8).
	pkt := func(sec, ln int64) gsql.Tuple {
		return gsql.Tuple{gsql.Int(sec), gsql.Float(float64(sec)), gsql.Int(1),
			gsql.Int(0x0a000001), gsql.Int(999), gsql.Int(80), gsql.Int(6), gsql.Int(ln)}
	}
	tuples := []gsql.Tuple{
		pkt(605, 4), pkt(607, 8), pkt(603, 3), pkt(608, 6), pkt(604, 4),
	}
	var rows []gsql.Tuple
	run := st.Start(func(r gsql.Tuple) error { rows = append(rows, r); return nil }, gsql.Options{})
	b, _ := gsql.NewBatch(gsql.PacketSchema("TCP"))
	for _, t := range tuples {
		b.Append(t)
	}
	if _, err := run.PushBatch(b); err != nil {
		fmt.Println(err)
		return
	}
	if err := run.Close(); err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range rows {
		fmt.Printf("bucket=%s decayed-bytes=%.6f\n", r[0], r[3].AsFloat())
	}
	// Σ len·(sec%60)² / 3600 = (4·25 + 8·49 + 3·9 + 6·64 + 4·16)/3600.
	// Output: bucket=10 decayed-bytes=0.268611
}

// UDAF registration needs no query-language changes: a custom aggregate is
// called like a builtin.
func ExampleEngine_RegisterUDAF() {
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		fmt.Println(err)
		return
	}
	err := e.RegisterUDAF(gsql.AggSpec{
		Name: "second", MinArgs: 1, MaxArgs: 1,
		New: func() gsql.Aggregator { return &secondLargest{} },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	st, err := e.Prepare(`select second(len) from TCP`)
	if err != nil {
		fmt.Println(err)
		return
	}
	var tuples []gsql.Tuple
	for _, ln := range []int64{100, 900, 500} {
		tuples = append(tuples, gsql.Tuple{gsql.Int(0), gsql.Float(0), gsql.Int(0),
			gsql.Int(0), gsql.Int(0), gsql.Int(0), gsql.Int(6), gsql.Int(ln)})
	}
	var rows []gsql.Tuple
	run := st.Start(func(r gsql.Tuple) error { rows = append(rows, r); return nil }, gsql.Options{})
	b, _ := gsql.NewBatch(gsql.PacketSchema("TCP"))
	for _, t := range tuples {
		b.Append(t)
	}
	run.PushBatch(b)
	run.Close()
	fmt.Println(rows[0][0])
	// Output: 500
}

// secondLargest is a toy UDAF returning the second-largest value seen.
type secondLargest struct{ a, b int64 }

func (s *secondLargest) Step(args []gsql.Value) error {
	v := args[0].AsInt()
	switch {
	case v > s.a:
		s.a, s.b = v, s.a
	case v > s.b:
		s.b = v
	}
	return nil
}

func (s *secondLargest) Final() gsql.Value { return gsql.Int(s.b) }
