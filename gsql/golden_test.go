package gsql_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"forwarddecay/gsql"
	"forwarddecay/internal/codec/codectest"
	"forwarddecay/netgen"
)

// goldenCatalogs are query sets shaped like the served benchmark workloads:
// the Fig. 2 forward-decay folds over (bucket, destination, port), the
// per-flow five-column key beside a single-column count, and a catalog of
// predicate classes on one destination each. The arithmetic is IEEE-exact
// on every port (no exp: math.Exp is assembly on some architectures), so
// the digests hold on any GOARCH.
var goldenCatalogs = []struct {
	name    string
	rate    float64 // netgen packets per event-second
	frame   int     // rows per PushBatch
	queries []string
}{
	{"serve_fwd", 2000, 256, []string{
		"select tb, dstIP, destPort, count(*), sum(len) from TCP group by time/1 as tb, dstIP, destPort",
		"select tb, dstIP, destPort, sum(float(len)*(time%60)*(time%60))/3600 from TCP group by time/1 as tb, dstIP, destPort",
		"select tb, dstIP, destPort, sum(float(len)/(1 + time%60)) from TCP group by time/1 as tb, dstIP, destPort",
		"select tb, dstIP, min(len), max(len), avg(len) from TCP group by time/1 as tb, dstIP",
		"select tb, dstIP, count(*) from TCP group by time/1 as tb, dstIP having count(*) > 2",
	}},
	{"serve_io", 2000, 16, []string{
		"select tb, count(*) from TCP group by time/1 as tb",
		"select tb, srcIP, dstIP, srcPort, destPort, count(*) from TCP group by time/1 as tb, srcIP, dstIP, srcPort, destPort",
	}},
	{"serve_catalog", 2000, 256, goldenCatalogQueries()},
}

// goldenCatalogQueries is 32 queries in 16 predicate classes, one frequent
// destination each (netgen numbers destinations 10.0.0.0 | rank).
func goldenCatalogQueries() []string {
	qs := make([]string, 32)
	for i := range qs {
		qs[i] = fmt.Sprintf("select tb, dstIP, count(*), sum(len + %d) from TCP where dstIP = %d group by time/1 as tb, dstIP",
			i, 0x0a000000+i%16)
	}
	return qs
}

// goldenDigests were recorded before the fold switched to word keys: every
// row, checkpoint byte and counter of the three row paths must stay as it
// was. A checkpoint's sum was core.HashBytes then and is core.Checksum now;
// it is hashed as the earlier sum (codectest.ParentTrailer).
var goldenDigests = map[string]uint64{
	"serve_fwd/slots=0":      0xa2e76ae1693d7e5f,
	"serve_fwd/slots=16":     0x17b37e3e2d5ca819,
	"serve_io/slots=0":       0x8f0744a208f7e45f,
	"serve_io/slots=16":      0x9fc15bb91a3c528e,
	"serve_catalog/slots=0":  0xd9e7433b963eaa41,
	"serve_catalog/slots=16": 0xd9e7433b963eaa41,
}

// TestFoldGoldenDigest folds a seeded netgen tape through each golden
// catalog on Run.Push, Run.PushBatch and MultiRun.PushBatch, at the default
// low-table size and at 16 slots (which forces evictions), and hashes every
// emitted value's bits, every checkpoint byte and Stats(). Each path also
// restores a second run from its mid-tape checkpoint and finishes the tape
// on it.
func TestFoldGoldenDigest(t *testing.T) {
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCatalogs {
		pkts := netgen.New(netgen.DefaultConfig(c.rate, 7)).Take(nil, 8*1024)
		for _, slots := range []int{0, 16} {
			name := fmt.Sprintf("%s/slots=%d", c.name, slots)
			opts := gsql.Options{LowLevelSlots: slots}
			d := &goldenDigest{t: t, h: fnv.New64a()}
			for _, q := range c.queries {
				st, err := e.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				d.run(t, st, pkts, c.frame, opts, false)
				d.run(t, st, pkts, c.frame, opts, true)
			}
			d.multi(t, e, c.queries, pkts, c.frame, opts)
			if got := d.h.Sum64(); got != goldenDigests[name] {
				t.Errorf("%s: digest %#x, want %#x", name, got, goldenDigests[name])
			}
		}
	}
}

type goldenDigest struct {
	t *testing.T
	h hash.Hash64
}

func (d *goldenDigest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d *goldenDigest) row(r gsql.Tuple) {
	d.u64(uint64(len(r)))
	for _, v := range r {
		d.u64(uint64(v.T))
		d.u64(uint64(v.I))
		d.u64(math.Float64bits(v.F))
		d.u64(uint64(len(v.S)))
		d.h.Write([]byte(v.S))
	}
}

func (d *goldenDigest) bytes(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	d.u64(uint64(len(b)))
	d.h.Write(codectest.ParentTrailer(d.t, b))
	return b
}

func (d *goldenDigest) stats(tuples, evictions uint64) { d.u64(tuples); d.u64(evictions) }

func (d *goldenDigest) sink(r gsql.Tuple) error { d.row(r); return nil }

// goldenBatch loads pkts into a fresh packet batch.
func goldenBatch(t *testing.T, pkts []netgen.Packet) *gsql.Batch {
	b, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	netgen.FillBatch(b, pkts)
	return b
}

// run folds pkts through one standalone run, per tuple or per frame, with a
// checkpoint at the half; a run restored from it finishes the second half.
func (d *goldenDigest) run(t *testing.T, st *gsql.Statement, pkts []netgen.Packet, frame int, opts gsql.Options, batched bool) {
	half := len(pkts) / 2
	feed := func(r *gsql.Run, pkts []netgen.Packet) {
		for len(pkts) > 0 {
			n := min(frame, len(pkts))
			if batched {
				if _, err := r.PushBatch(goldenBatch(t, pkts[:n])); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, p := range pkts[:n] {
					if err := r.Push(netgen.Tuple(p)); err != nil {
						t.Fatal(err)
					}
				}
			}
			pkts = pkts[n:]
		}
	}
	finish := func(r *gsql.Run) {
		d.bytes(r.Checkpoint())
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		d.stats(r.Stats())
	}
	r := st.Start(d.sink, opts)
	feed(r, pkts[:half])
	ck := d.bytes(r.Checkpoint())
	feed(r, pkts[half:])
	finish(r)
	rr, err := st.Restore(ck, d.sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(rr, pkts[half:])
	finish(rr)
}

// multi folds pkts through one MultiRun holding the whole catalog, with
// every member checkpointed at the half; a second MultiRun restores every
// member from those checkpoints and finishes the second half.
func (d *goldenDigest) multi(t *testing.T, e *gsql.Engine, queries []string, pkts []netgen.Packet, frame int, opts gsql.Options) {
	half := len(pkts) / 2
	rows := make([][]gsql.Tuple, len(queries))
	sink := func(i int) func(gsql.Tuple) error {
		return func(r gsql.Tuple) error { rows[i] = append(rows[i], r); return nil }
	}
	feed := func(m *gsql.MultiRun, pkts []netgen.Packet) {
		for len(pkts) > 0 {
			n := min(frame, len(pkts))
			if _, err := m.PushBatch(goldenBatch(t, pkts[:n])); err != nil {
				t.Fatal(err)
			}
			pkts = pkts[n:]
		}
	}
	finish := func(m *gsql.MultiRun, hs []*gsql.MultiHandle) {
		for _, h := range hs {
			d.bytes(h.Checkpoint())
		}
		if err := m.CloseAll(); err != nil {
			t.Fatal(err)
		}
		for i, h := range hs {
			d.stats(h.Stats())
			for _, r := range rows[i] {
				d.row(r)
			}
			rows[i] = rows[i][:0]
		}
	}
	m, err := gsql.NewMultiRun(e, "TCP", opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]*gsql.MultiHandle, len(queries))
	for i, q := range queries {
		if hs[i], err = m.Attach(q, 0, sink(i)); err != nil {
			t.Fatal(err)
		}
	}
	feed(m, pkts[:half])
	cks := make([][]byte, len(hs))
	for i, h := range hs {
		cks[i] = d.bytes(h.Checkpoint())
	}
	feed(m, pkts[half:])
	finish(m, hs)

	mr, err := gsql.NewMultiRun(e, "TCP", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if hs[i], err = mr.Restore(q, 0, cks[i], sink(i)); err != nil {
			t.Fatal(err)
		}
	}
	feed(mr, pkts[half:])
	finish(mr, hs)
}
