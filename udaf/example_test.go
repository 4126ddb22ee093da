package udaf_test

import (
	"fmt"

	"forwarddecay/gsql"
	"forwarddecay/udaf"
)

// Registering the UDAF suite lets queries call the paper's aggregates —
// here the weighted SpaceSaving heavy hitters under quadratic forward
// decay, on the Example 3 stream.
func ExampleRegisterAll() {
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		fmt.Println(err)
		return
	}
	if err := udaf.RegisterAll(e, udaf.Config{Epsilon: 0.1, Phi: 0.2}); err != nil {
		fmt.Println(err)
		return
	}
	// The weight (time%60)²/3600 is the §IV-A quadratic decay; the /3600
	// normalizer cancels in the heavy-hitter threshold, so the raw square
	// works as the UDAF weight.
	st, err := e.Prepare(`select tb, sshh(len, float((time % 60)*(time % 60)))
	                      from TCP group by time/60 as tb`)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Example 1/3 stream: "values" carried in the len column.
	pkt := func(sec, v int64) gsql.Tuple {
		return gsql.Tuple{gsql.Int(sec), gsql.Float(float64(sec)), gsql.Int(0),
			gsql.Int(1), gsql.Int(0), gsql.Int(80), gsql.Int(6), gsql.Int(v)}
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
	fmt.Println(rows[0][1])
	// Output: 6:64,8:49,4:41
}
