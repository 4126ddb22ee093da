package gsql_test

import (
	"bytes"
	"fmt"
	"testing"

	"forwarddecay/gsql"
)

// Poison-query soak: the PR-10 acceptance gate. A catalog of 1000 standing
// queries rides one shared feed while a deterministic tape of hostile
// queries — an erroring storm, a group-key cardinality bomb, a panicking
// aggregate, a failing WHERE clause — is attached mid-stream and quarantined by the isolation machinery. Across a
// kill-and-recover cut (checkpoint every survivor, rebuild the runtime,
// restore, finish the stream), every survivor's rows and final checkpoint
// must be bit-for-bit identical to a fault-free oracle catalog that never
// contained the poison queries, run through the identical cut.

var soakCatalogWheres = []string{"dstIP = 7", "dstIP = 19", "dstIP = 23", "dstIP = 42"}

// soakCatalogQuery renders standing query i: the WHERE rotates over four predicate
// classes, every 50th query is unfiltered (so it folds each tuple and shares
// a class with the unfiltered poisons), and the sum argument is unique per
// query so texts do not all dedup away.
func soakCatalogQuery(i int) string {
	if i%50 == 49 {
		return fmt.Sprintf(`select tb, count(*), sum(len + %d) from TCP group by time/60 as tb`, i)
	}
	return fmt.Sprintf(
		`select tb, dstIP, count(*), sum(len + %d) from TCP where %s group by time/60 as tb, dstIP`,
		i, soakCatalogWheres[i%len(soakCatalogWheres)])
}

// soakCatalogTrace synthesizes the soak stream: timestamps advance one second per
// 60 tuples (several bucket closures per run), destinations scatter over a
// 256-address space so each predicate class matches ~1/256 of the tuples.
func soakCatalogTrace(n int, seed uint64) []gsql.Tuple {
	out := make([]gsql.Tuple, n)
	x := seed*2654435761 + 1
	for j := range out {
		x = x*6364136223846793005 + 1442695040888963407
		t := int64(j / 60)
		out[j] = gsql.Tuple{
			gsql.Int(t), gsql.Float(float64(j) / 60), gsql.Int(int64(x >> 33 & 0xffff)),
			gsql.Int(int64(x>>17) & 255), gsql.Int(4242), gsql.Int(80),
			gsql.Int(6), gsql.Int(100 + int64(j%1400)),
		}
	}
	return out
}

// runSoakCatalog drives one catalog over the soak stream with a
// kill-and-recover cut at cutAt, optionally injecting the poison tape
// mid-stream, and returns each survivor's collected rows and final
// checkpoint.
func runSoakCatalog(t *testing.T, queries []string, tuples []gsql.Tuple, cutAt int, poisons bool) ([][]gsql.Tuple, [][]byte) {
	t.Helper()
	iso := gsql.IsolateConfig{BreakerErrors: 4, MaxGroups: 256}
	e := parallelEngine(t)
	registerBoom(t, e)

	attach := func(m *gsql.MultiRun, i int, sink func(gsql.Tuple) error, ckpt []byte) *gsql.MultiHandle {
		var h *gsql.MultiHandle
		var err error
		if ckpt != nil {
			h, err = m.Restore(queries[i], 0, ckpt, sink)
		} else {
			h, err = m.Attach(queries[i], 0, sink)
		}
		if err != nil {
			t.Fatalf("soak attach %d: %v", i, err)
		}
		return h
	}

	m1, err := gsql.NewMultiRun(e, "TCP", isoOpts(iso))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]gsql.Tuple, len(queries))
	handles := make([]*gsql.MultiHandle, len(queries))
	for i := range queries {
		i := i
		handles[i] = attach(m1, i, func(r gsql.Tuple) error { rows[i] = append(rows[i], r); return nil }, nil)
	}

	// The deterministic tape: poisons attach a third of the way in and must
	// all be fenced before the cut.
	p1 := cutAt / 3
	for _, tp := range tuples[:p1] {
		if err := m1.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	var poisonHandles []*gsql.MultiHandle
	if poisons {
		for _, q := range []string{
			poisonErrQuery,
			poisonCardQuery,
			poisonBoomQuery,
			`select tb, sum(len) from TCP where len / (len - len) > 0 group by time/60 as tb`,
		} {
			h, err := m1.Attach(q, 0, func(gsql.Tuple) error { return nil })
			if err != nil {
				t.Fatalf("attach poison %q: %v", q, err)
			}
			poisonHandles = append(poisonHandles, h)
		}
	}
	for _, tp := range tuples[p1:cutAt] {
		if err := m1.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range poisonHandles {
		if q := h.QueryStats().Quarantined; !q {
			t.Fatalf("poison %d was not quarantined before the cut", i)
		}
	}
	if poisons {
		if s := m1.MultiStats(); s.Quarantined != len(poisonHandles) {
			t.Fatalf("Quarantined = %d, want %d", s.Quarantined, len(poisonHandles))
		}
	}

	// Kill: checkpoint every survivor and drop the runtime on the floor.
	ckpts := make([][]byte, len(queries))
	for i, h := range handles {
		if ckpts[i], err = h.Checkpoint(); err != nil {
			t.Fatalf("cut checkpoint %d: %v", i, err)
		}
	}

	// Recover: a fresh runtime, every survivor restored. The quarantined
	// poisons stay dormant (the service layer owns their specs) — the
	// rebuilt catalog never re-attaches them.
	m2, err := gsql.NewMultiRun(e, "TCP", isoOpts(iso))
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		i := i
		handles[i] = attach(m2, i, func(r gsql.Tuple) error { rows[i] = append(rows[i], r); return nil }, ckpts[i])
	}
	for _, tp := range tuples[cutAt:] {
		if err := m2.Push(tp); err != nil {
			t.Fatal(err)
		}
	}
	finals := make([][]byte, len(queries))
	for i, h := range handles {
		if finals[i], err = h.Checkpoint(); err != nil {
			t.Fatalf("final checkpoint %d: %v", i, err)
		}
	}
	if err := m2.CloseAll(); err != nil {
		t.Fatal(err)
	}
	return rows, finals
}

func TestMultiPoisonSoak(t *testing.T) {
	n := 1000
	streamLen := 9_000
	if testing.Short() {
		n, streamLen = 200, 4_000
	}
	queries := make([]string, n)
	for i := range queries {
		queries[i] = soakCatalogQuery(i)
	}
	tuples := soakCatalogTrace(streamLen, 11)
	cutAt := streamLen / 2

	poisoned, poisonedCkpts := runSoakCatalog(t, queries, tuples, cutAt, true)
	oracle, oracleCkpts := runSoakCatalog(t, queries, tuples, cutAt, false)

	emitted := 0
	for i := range queries {
		requireIdentical(t, oracle[i], poisoned[i], fmt.Sprintf("soak survivor %d", i))
		if !bytes.Equal(oracleCkpts[i], poisonedCkpts[i]) {
			t.Errorf("soak survivor %d: final checkpoint differs from the fault-free oracle", i)
		}
		emitted += len(poisoned[i])
	}
	if emitted == 0 {
		t.Fatal("soak emitted no rows; the fixture is too small to prove anything")
	}
}
