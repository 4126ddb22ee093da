package gsql_test

import (
	"bytes"
	"fmt"
	"testing"

	"forwarddecay/gsql"
	"forwarddecay/internal/faultinject"
)

// Churn-soak smoke: one faultinject.SoakSchedule tape drives a catalog
// through attach/detach churn while poison queries come and go (attached by
// SoakPoison, fenced by the breaker, lifted again by SoakRevive — and
// re-fenced, since the stream keeps faulting them). The same tape replayed
// with the poison/revive events stripped is the oracle: the base catalog's
// rows and final checkpoints must be bit-for-bit identical, proving the
// quarantine lifecycle is invisible to healthy neighbors even under
// concurrent catalog churn.

// soakEventTuple renders a tape tuple into the TCP packet schema: stream
// time from T, addresses from Key, length from Val.
func soakEventTuple(ev faultinject.SoakEvent) gsql.Tuple {
	return gsql.Tuple{
		gsql.Int(int64(ev.T)), gsql.Float(ev.T), gsql.Int(int64(ev.Key >> 8 & 0xffff)),
		gsql.Int(int64(ev.Key) & 255), gsql.Int(4242), gsql.Int(80),
		gsql.Int(6), gsql.Int(100 + int64(ev.Val)),
	}
}

func runChurnSoak(t *testing.T, tape []faultinject.SoakEvent, base []string, poisons bool) ([][]gsql.Tuple, [][]byte) {
	t.Helper()
	e := parallelEngine(t)
	m, err := gsql.NewMultiRun(e, "TCP", isoOpts(gsql.IsolateConfig{BreakerErrors: 4}))
	if err != nil {
		t.Fatal(err)
	}

	rows := make([][]gsql.Tuple, len(base))
	handles := make([]*gsql.MultiHandle, len(base))
	for i, q := range base {
		i := i
		handles[i], err = m.Attach(q, 0, func(r gsql.Tuple) error { rows[i] = append(rows[i], r); return nil })
		if err != nil {
			t.Fatal(err)
		}
	}

	// Churned queries cycle FIFO; their texts continue the base numbering so
	// both runs attach identical specs at identical tape positions.
	var churned []*gsql.MultiHandle
	var fenced []*gsql.MultiHandle
	nextChurn, nextPoison := len(base), 0
	for _, ev := range tape {
		switch ev.Op {
		case faultinject.SoakTuple:
			if err := m.Push(soakEventTuple(ev)); err != nil {
				t.Fatal(err)
			}
		case faultinject.SoakHeartbeat:
			if err := m.Heartbeat(gsql.Int(int64(ev.T))); err != nil {
				t.Fatal(err)
			}
		case faultinject.SoakAttach:
			h, err := m.Attach(soakCatalogQuery(nextChurn), 0, func(gsql.Tuple) error { return nil })
			if err != nil {
				t.Fatalf("churn attach %d: %v", nextChurn, err)
			}
			nextChurn++
			churned = append(churned, h)
		case faultinject.SoakDetach:
			if len(churned) > 0 {
				churned[0].Detach()
				churned = churned[1:]
			}
		case faultinject.SoakPoison:
			if !poisons {
				continue
			}
			h, err := m.Attach(fmt.Sprintf(
				`select tb, sum(len / (len - len) + %d) from TCP group by time/60 as tb`, nextPoison),
				0, func(gsql.Tuple) error { return nil })
			if err != nil {
				t.Fatalf("poison attach %d: %v", nextPoison, err)
			}
			nextPoison++
			fenced = append(fenced, h)
		case faultinject.SoakRevive:
			if len(fenced) == 0 {
				continue
			}
			h := fenced[0]
			if q := h.QueryStats().Quarantined; !q {
				t.Fatal("revive fired before its poison was fenced")
			}
			fenced = fenced[1:]
			if err := h.Revive(); err != nil {
				t.Fatalf("revive: %v", err)
			}
			fenced = append(fenced, h) // it will re-trip on the next tuples
		}
	}

	finals := make([][]byte, len(base))
	for i, h := range handles {
		if finals[i], err = h.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if poisons && nextPoison == 0 {
		t.Fatal("tape scheduled no poison events; the smoke proves nothing")
	}
	return rows, finals
}

// churnSoakConfig is the catalog-churn soak's schedule.
func churnSoakConfig() faultinject.SoakConfig {
	return faultinject.SoakConfig{
		Seed:           7,
		Duration:       3000,
		MeanGap:        1,
		Keys:           1 << 16,
		HeartbeatEvery: 250,
		AttachEvery:    150,
		DetachEvery:    300,
		PoisonEvery:    500,
		ReviveAfter:    120,
	}
}

func TestMultiChurnSoak(t *testing.T) {
	tape := faultinject.SoakSchedule(churnSoakConfig())

	base := make([]string, 12)
	for i := range base {
		base[i] = soakCatalogQuery(i)
	}

	poisoned, poisonedCkpts := runChurnSoak(t, tape, base, true)
	oracle, oracleCkpts := runChurnSoak(t, tape, base, false)

	emitted := 0
	for i := range base {
		requireIdentical(t, oracle[i], poisoned[i], fmt.Sprintf("churn-soak survivor %d", i))
		if !bytes.Equal(oracleCkpts[i], poisonedCkpts[i]) {
			t.Errorf("churn-soak survivor %d: final checkpoint differs from the oracle", i)
		}
		emitted += len(poisoned[i])
	}
	if emitted == 0 {
		t.Fatal("churn soak emitted no rows; the fixture is too small to prove anything")
	}
}
