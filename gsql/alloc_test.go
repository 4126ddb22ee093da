package gsql

import "testing"

// TestCompiledExprSteadyStateAllocs guards the compiled-expression tuple
// path in isolation: a predicate mixing type-specialized comparisons,
// arithmetic and boolean connectives must evaluate with zero allocations.
func TestCompiledExprSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	e := mkEngine(t)
	st, err := e.Prepare(`select tb, count(*) from TCP
	                        where len*8 > 256 and destPort = 80 and time % 60 < 59
	                        group by time/60 as tb`)
	if err != nil {
		t.Fatal(err)
	}
	where := oracleOf(st.p).where
	tuples := make([]Tuple, 16)
	for i := range tuples {
		tuples[i] = pkt(30, int64(i), 80, int64(100+i))
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := where(tuples[i%len(tuples)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("compiled predicate allocates %.2f objects/op, want 0", avg)
	}
}

// TestPushSteadyStateAllocs guards the serial hot path's zero-allocation
// property: once every group of the current bucket exists, Push must not
// allocate — group values land in the reused scratch slice, aggregate
// arguments in the reused args buffer, and map probes use the
// string(keyBuf) non-allocating index form.
func TestPushSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	e := mkEngine(t)
	st, err := e.Prepare(`select tb, dstIP, count(*), sum(len), avg(float(len))
	                        from TCP group by time/60 as tb, dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"two-level", Options{}},
		{"high-only", Options{DisableTwoLevel: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := st.Start(func(Tuple) error { return nil }, tc.opts)
			// Warm up: materialize all 16 groups of the bucket so the
			// steady state is pure probe + step.
			tuples := make([]Tuple, 16)
			for i := range tuples {
				tuples[i] = pkt(30, int64(i), 80, int64(100+i))
			}
			for _, tp := range tuples {
				if err := run.Push(tp); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			avg := testing.AllocsPerRun(1000, func() {
				if err := run.Push(tuples[i%len(tuples)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Errorf("steady-state Push allocates %.2f objects/op, want 0", avg)
			}
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("shared", func(t *testing.T) {
		m := sharedTable(t, e, Options{}, 3, func(Tuple) error { return nil })
		tuples := make([]Tuple, 16)
		for i := range tuples {
			tuples[i] = pkt(30, int64(i), 80, int64(100+i))
			if err := m.Push(tuples[i]); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		avg := testing.AllocsPerRun(1000, func() {
			if err := m.Push(tuples[i%len(tuples)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if avg != 0 {
			t.Errorf("steady-state Push into a 3-member shared table allocates %.2f objects/op, want 0", avg)
		}
	})
}

// sharedQueries group alike with different aggregates: one key table folds
// them all.
var sharedQueries = []string{
	`select tb, dstIP, count(*), sum(len), avg(float(len)) from TCP group by time/1 as tb, dstIP`,
	`select tb, dstIP, min(len), max(len) from TCP group by time/1 as tb, dstIP`,
	`select tb, dstIP, sum(float(len)*(time%60)) from TCP group by time/1 as tb, dstIP`,
}

// sharedTable attaches the first n sharedQueries to a MultiRun and checks
// that they fold through one key table.
func sharedTable(t *testing.T, e *Engine, opts Options, n int, sink func(Tuple) error) *MultiRun {
	t.Helper()
	m, err := NewMultiRun(e, "TCP", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range sharedQueries[:n] {
		if _, err := m.Attach(q, 0, sink); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.MultiStats(); st.KeyTables != 1 {
		t.Fatalf("%d queries fold through %d key tables, want 1", n, st.KeyTables)
	}
	return m
}

// bucketTuples builds one second's worth of tuples for the flush guards:
// groups distinct destinations, twice each, all in bucket sec.
func bucketTuples(sec int64, groups int) []Tuple {
	tuples := make([]Tuple, 0, 2*groups)
	for rep := 0; rep < 2; rep++ {
		for g := 0; g < groups; g++ {
			tuples = append(tuples, pkt(sec, int64(g), 80, int64(100+g)))
		}
	}
	return tuples
}

// TestFlushSteadyStateAllocs guards the group lifecycle across buckets in
// the shape the service's queries have: the temporal bucket is part of the
// group key, so no key ever repeats and every bucket's groups are born,
// emitted and retired. Once the run has seen its peak bucket, a whole
// bucket — births, folds, the flush — costs one allocation, the slab its
// output rows are cut from, whether or not the low table is forced to evict
// into the high level on the way, and whether the plan writes its rows
// straight from the groups or projects them through the output kernels (a
// computed item, serve_fwd's quadratic decay; HAVING). A 3-member shared key
// table costs one slab per member.
func TestFlushSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	e := mkEngine(t)
	plans := []struct {
		prefix string // of the subtest names
		query  string
		st     *Statement
	}{
		{"", `select tb, dstIP, count(*), sum(len), min(len), max(len), avg(float(len)) from TCP group by time/1 as tb, dstIP`, nil},
		{"projection/", `select tb, dstIP, sum(float(len)*(time%60)*(time%60))/3600 from TCP group by time/1 as tb, dstIP`, nil},
		{"having/", `select tb, dstIP, count(*) from TCP group by time/1 as tb, dstIP having count(*) > 1 and max(len) > 0`, nil},
	}
	for i := range plans {
		var err error
		if plans[i].st, err = e.Prepare(plans[i].query); err != nil {
			t.Fatal(err)
		}
		if got, want := plans[i].st.p.outDirect == nil, plans[i].prefix != ""; got != want {
			t.Fatalf("%q projects: %v, want %v", plans[i].query, got, want)
		}
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"low-only", Options{}},
		{"evicting", Options{LowLevelSlots: 16}},
		{"high-only", Options{DisableTwoLevel: true}},
	} {
		for _, pl := range plans {
			t.Run(pl.prefix+tc.name, func(t *testing.T) {
				rows := 0
				run := pl.st.Start(func(Tuple) error { rows++; return nil }, tc.opts)
				flushAllocs(t, 1, &rows, run.Push)
				if _, ev := run.Stats(); tc.name == "evicting" && ev == 0 {
					t.Fatal("the evicting case never evicted")
				}
			})
		}
		t.Run(tc.name+"/shared", func(t *testing.T) {
			rows := 0
			m := sharedTable(t, e, tc.opts, 3, func(Tuple) error { rows++; return nil })
			flushAllocs(t, 3, &rows, m.Push)
		})
	}
}

// flushAllocs feeds whole buckets of 48 groups through push, warm, and
// fails if a bucket allocates more than slabs objects (the output slabs of
// the members) or *rows stops growing.
func flushAllocs(t *testing.T, slabs int, rows *int, push func(Tuple) error) {
	t.Helper()
	const groups = 48
	sec := int64(0)
	for i := 0; i < 8; i++ { // warm up: tables, free lists and scratch reach their sizes
		for _, tp := range bucketTuples(sec, groups) {
			if err := push(tp); err != nil {
				t.Fatal(err)
			}
		}
		sec++
	}
	// Pre-build the tuples: the guard counts the run's allocations only.
	var feed [][]Tuple
	for i := 0; i < 64; i++ {
		feed = append(feed, bucketTuples(sec+int64(i), groups))
	}
	i, before := 0, *rows
	avg := testing.AllocsPerRun(len(feed)-2, func() {
		for _, tp := range feed[i] {
			if err := push(tp); err != nil {
				t.Fatal(err)
			}
		}
		i++
	})
	if avg > float64(slabs) {
		t.Errorf("a bucket of %d groups allocates %.2f objects, want <= %d (the output slabs)", groups, avg, slabs)
	}
	if got := *rows - before; got < slabs*groups*(len(feed)-3) {
		t.Fatalf("only %d rows emitted while measuring", got)
	}
}

// TestCheckpointAllocs guards Run.Checkpoint on a warm run: the entries are
// encoded into the run's own scratch and sorted through an index, so the
// cost in objects is the returned buffer plus the one probe aggregator per
// slot the checkpointable test instantiates — independent of the group
// count.
func TestCheckpointAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	e := mkEngine(t)
	st, err := e.Prepare(`select tb, dstIP, count(*), sum(len), min(len), avg(float(len))
	                        from TCP group by time/60 as tb, dstIP`)
	if err != nil {
		t.Fatal(err)
	}
	for _, groups := range []int{8, 2000} {
		// 2000 groups overflow the 256 slots: both tables hold entries.
		run := st.Start(func(Tuple) error { return nil }, Options{LowLevelSlots: 256})
		for _, tp := range bucketTuples(30, groups) {
			if err := run.Push(tp); err != nil {
				t.Fatal(err)
			}
		}
		want, err := run.Checkpoint() // warm the scratch
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		avg := testing.AllocsPerRun(20, func() {
			if got, err = run.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		if max := float64(1 + len(st.p.aggSpecs)); avg > max {
			t.Errorf("checkpoint of %d groups allocates %.2f objects, want <= %.0f", groups, avg, max)
		}
		if string(got) != string(want) {
			t.Fatalf("checkpoint of %d groups is not stable across calls", groups)
		}
	}
}
