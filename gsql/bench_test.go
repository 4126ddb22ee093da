package gsql

import (
	"testing"
)

// Benchmarks for the per-tuple execution hot path: expression evaluation
// (WHERE, group-by, aggregate arguments) and the full Push cycle.

// benchStatement prepares the canonical benchmark query: a filter, an
// arithmetic temporal bucket, a key column, and three aggregates — the shape
// of the paper's per-minute traffic queries.
func benchStatement(b *testing.B) *Statement {
	b.Helper()
	e := NewEngine()
	if err := e.RegisterStream(PacketSchema("TCP")); err != nil {
		b.Fatal(err)
	}
	st, err := e.Prepare(`select tb, dstIP, count(*), sum(len), avg(float(len))
	                        from TCP
	                        where len > 0 and destPort = 80
	                        group by time/60 as tb, dstIP`)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// benchTuples builds a cycle of packet tuples spanning 16 groups in one
// time bucket.
func benchTuples() []Tuple {
	tuples := make([]Tuple, 64)
	for i := range tuples {
		tuples[i] = Tuple{
			Int(30), Float(30), Int(100), Int(int64(i % 16)),
			Int(4242), Int(80), Int(6), Int(100 + int64(i)),
		}
	}
	return tuples
}

// BenchmarkExecPush measures the steady-state serial Push path: WHERE
// evaluation, group-key extraction, low-table probe, and aggregate stepping.
func BenchmarkExecPush(b *testing.B) {
	st := benchStatement(b)
	run := st.Start(func(Tuple) error { return nil }, Options{})
	tuples := benchTuples()
	for _, t := range tuples { // materialize all groups
		if err := run.Push(t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Push(tuples[i&63]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := run.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExprPredicate measures the WHERE kernel alone, through
// BatchPredicate: a conjunction of comparisons over int columns plus
// arithmetic, one 64-row batch per op.
func BenchmarkExprPredicate(b *testing.B) {
	e := NewEngine()
	if err := e.RegisterStream(PacketSchema("TCP")); err != nil {
		b.Fatal(err)
	}
	st, err := e.Prepare(`select tb, count(*) from TCP
	                        where len*8 > 256 and destPort = 80 and time % 60 < 59
	                        group by time/60 as tb`)
	if err != nil {
		b.Fatal(err)
	}
	pred := st.BatchPredicate()
	batch, err := NewBatch(st.p.schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range benchTuples() {
		if err := batch.Append(t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Len()), "ns/row")
}

// BenchmarkPoisonedMember measures the failure path of a shared key table:
// two members of one MultiRun group alike, and the argument of one of them
// (ln of a negative value) fails on every row, in frames of 4096 rows.
func BenchmarkPoisonedMember(b *testing.B) {
	e := NewEngine()
	if err := e.RegisterStream(PacketSchema("TCP")); err != nil {
		b.Fatal(err)
	}
	m, err := NewMultiRun(e, "TCP", Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{
		`select tb, dstIP, count(*), sum(len) from TCP group by time/60 as tb, dstIP`,
		`select tb, dstIP, count(*), sum(ln(-ftime)) from TCP group by time/60 as tb, dstIP`,
	} {
		if _, err := m.Attach(q, 0, func(Tuple) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	batch, err := NewBatch(PacketSchema("TCP"))
	if err != nil {
		b.Fatal(err)
	}
	for i := range 4096 {
		if err := batch.Append(pkt(30, int64(i%16), 80, int64(100+i%64))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Len()), "ns/row")
}
