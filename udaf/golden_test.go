package udaf_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"forwarddecay/decay"
	"forwarddecay/gsql"
	"forwarddecay/netgen"
	"forwarddecay/udaf"
)

// fdGoldenQueries are the decayed-aggregate query shapes the golden pins:
// the six of the engine benchmark, then the moments under other argument
// mixes (an int value, a value that is sometimes +Inf, fdcount beside two
// frames over different values) and the remaining checkpointable fd*.
var fdGoldenQueries = []string{
	"select tb, fdcount(ftime), fdsum(ftime, float(len)), fdavg(ftime, float(len)) from TCP group by time/60 as tb",
	"select tb, fdhh(dstIP, ftime) from TCP group by time/60 as tb",
	"select tb, fdpct(len, ftime) from TCP group by time/60 as tb",
	"select tb, fdprisamp(len, ftime), fdwrsamp(len, ftime) from TCP group by time/60 as tb",
	"select tb, swhh(dstIP, ftime, float(1)), ehsum(ftime, float(len)) from TCP group by time/60 as tb",
	"select tb, count(*), sum(len) from TCP group by time/60 as tb",
	"select tb, dp, fdvar(ftime, float(len)), fdcount(ftime), fdsum(ftime, destPort), fdavg(ftime, float(len)), " +
		"fdsum(ftime, float(len)/float(len%7)), fdvar(ftime, float(len)/float(len%7)) from TCP group by time/60 as tb, destPort%3 as dp",
	"select tb, fdmin(ftime, float(len)), fdmax(ftime, float(len)), fdcard(dstIP, ftime), fdcount(ftime - 30.0) from TCP group by time/60 as tb",
}

// fdGoldenLoose marks the shapes whose bits follow Go's map iteration order
// at the recording commit: swhh orders equal counts by it, and a q-digest
// sums sibling weights and encodes its nodes in it. Their string results
// are hashed with comma-separated parts sorted, and their checkpoints by
// length only.
var fdGoldenLoose = map[int]bool{2: true, 4: true}

// fdGoldenDigests were recorded before the decayed aggregates stepped from
// the kernel columns: every row, checkpoint byte and counter of every row
// path must stay as it was. fdGoldenExp fingerprints math.Exp on the
// recording machine (amd64 with FMA); where it rounds differently the
// digests cannot hold and the test skips.
var (
	fdGoldenExp     uint64 = 0x5eee4d8116b2fcc
	fdGoldenDigests        = map[string]uint64{
		"q0/epoch=false":    0x4a91552509703da2,
		"q1/epoch=false":    0xc3bdb6f952ed81ff,
		"q2/epoch=false":    0xd9c7d1eea4c3c118,
		"q3/epoch=false":    0x117d1f5a09306a6a,
		"q4/epoch=false":    0xd8615538c9d83c64,
		"q5/epoch=false":    0xc33a298639588557,
		"q6/epoch=false":    0x3efe6c8bd560cd39,
		"q7/epoch=false":    0x813384513e5e995,
		"multi/epoch=false": 0xbe79f3d68f3172b,
		"q0/epoch=true":     0xce82c7ee5f3d11ea,
		"q1/epoch=true":     0x52bc77bb9d66fd13,
		"q2/epoch=true":     0x5560cde10e2f5370,
		"q3/epoch=true":     0x117d1f5a09306a6a,
		"q4/epoch=true":     0xd8615538c9d83c64,
		"q5/epoch=true":     0x9b15a4894eb85b11,
		"q6/epoch=true":     0x9340ef923cb023c0,
		"q7/epoch=true":     0x948915df5ccdd946,
		"multi/epoch=true":  0x1086e3550a68ca27,
	}
)

// expFingerprint hashes math.Exp over a spread of arguments.
func expFingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 4096; i++ {
		x := math.Float64bits(math.Exp(float64(i)*0.173 - 350))
		for j := range b {
			b[j] = byte(x >> (8 * j))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFDGoldenDigest folds an out-of-order netgen tape through each fd*
// shape on Run.Push, on Run.PushBatch at frames of 1, 7, 64 and 4096, and on
// one MultiRun holding every shape, with and without an epoch supervisor
// rolling the landmark every 25 stream seconds (mid-frame on every frame
// size but 1). It hashes every emitted value's bits, every checkpoint byte
// and Stats(); a checkpointable path also restores a second run from its
// mid-tape checkpoint and finishes the tape on it.
func TestFDGoldenDigest(t *testing.T) {
	if fp := expFingerprint(); fp != fdGoldenExp {
		t.Skipf("math.Exp fingerprint %#x, digests recorded under %#x", fp, fdGoldenExp)
	}
	model := decay.NewForward(decay.NewExp(0.1), 0)
	e := gsql.NewEngine()
	if err := e.RegisterStream(gsql.PacketSchema("TCP")); err != nil {
		t.Fatal(err)
	}
	if err := udaf.RegisterAll(e, udaf.Config{Decay: model, SampleSize: 8}); err != nil {
		t.Fatal(err)
	}
	cfg := netgen.DefaultConfig(20, 11)
	cfg.OutOfOrder = 64
	pkts := netgen.New(cfg).Take(nil, 8*1024)
	for _, epoch := range []bool{false, true} {
		var opts gsql.Options
		if epoch {
			opts.Epoch = &gsql.EpochConfig{Model: model, Every: 25, TimeColumn: "ftime"}
		}
		for qi, q := range fdGoldenQueries {
			st, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			d := &fdDigest{t: t, h: fnv.New64a(), loose: fdGoldenLoose[qi]}
			d.run(t, st, pkts, 0, opts)
			for _, frame := range []int{1, 7, 64, 4096} {
				d.run(t, st, pkts, frame, opts)
			}
			d.check(fmt.Sprintf("q%d/epoch=%v", qi, epoch))
		}
		d := &fdDigest{t: t, h: fnv.New64a()}
		d.multi(t, e, pkts, 256, opts)
		d.check(fmt.Sprintf("multi/epoch=%v", epoch))
	}
}

type fdDigest struct {
	t     *testing.T
	h     hash.Hash64
	loose bool
}

func (d *fdDigest) check(name string) {
	if got, want := d.h.Sum64(), fdGoldenDigests[name]; got != want {
		d.t.Errorf("%s: digest %#x, want %#x", name, got, want)
	}
}

func (d *fdDigest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d *fdDigest) row(r gsql.Tuple) {
	d.u64(uint64(len(r)))
	for _, v := range r {
		d.u64(uint64(v.T))
		d.u64(uint64(v.I))
		d.u64(math.Float64bits(v.F))
		s := v.S
		if d.loose {
			parts := strings.Split(s, ",")
			slices.Sort(parts)
			s = strings.Join(parts, ",")
		}
		d.u64(uint64(len(s)))
		d.h.Write([]byte(s))
	}
}

func (d *fdDigest) bytes(b []byte, err error) []byte {
	if err != nil {
		d.t.Fatal(err)
	}
	d.u64(uint64(len(b)))
	if !d.loose {
		d.h.Write(b)
	}
	return b
}

func (d *fdDigest) stats(tuples, evictions uint64) { d.u64(tuples); d.u64(evictions) }

func (d *fdDigest) sink(r gsql.Tuple) error { d.row(r); return nil }

// feed pushes pkts per tuple (frame 0) or in PushBatch frames.
func fdFeed(t *testing.T, push func(*gsql.Batch) error, r *gsql.Run, pkts []netgen.Packet, frame int) {
	b, err := gsql.NewBatch(gsql.PacketSchema("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	for len(pkts) > 0 {
		n := min(max(frame, 1), len(pkts))
		if frame == 0 {
			if err := r.Push(netgen.Tuple(pkts[0])); err != nil {
				t.Fatal(err)
			}
		} else {
			netgen.FillBatch(b, pkts[:n])
			if err := push(b); err != nil {
				t.Fatal(err)
			}
		}
		pkts = pkts[n:]
	}
}

// run folds pkts through one standalone run; a checkpointable statement is
// checkpointed at the half and a restored run finishes the second half.
func (d *fdDigest) run(t *testing.T, st *gsql.Statement, pkts []netgen.Packet, frame int, opts gsql.Options) {
	half := len(pkts) / 2
	ckpt := st.Checkpointable() == nil
	feed := func(r *gsql.Run, pkts []netgen.Packet) {
		fdFeed(t, func(b *gsql.Batch) error { _, err := r.PushBatch(b); return err }, r, pkts, frame)
	}
	finish := func(r *gsql.Run) {
		if ckpt {
			d.bytes(r.Checkpoint())
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		d.stats(r.Stats())
	}
	r := st.Start(d.sink, opts)
	feed(r, pkts[:half])
	var ck []byte
	if ckpt {
		ck = d.bytes(r.Checkpoint())
	}
	feed(r, pkts[half:])
	finish(r)
	if !ckpt {
		return
	}
	rr, err := st.Restore(ck, d.sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(rr, pkts[half:])
	finish(rr)
}

// multi folds pkts through one MultiRun holding every shape; the
// checkpointable members restore into a second MultiRun at the half.
func (d *fdDigest) multi(t *testing.T, e *gsql.Engine, pkts []netgen.Packet, frame int, opts gsql.Options) {
	half := len(pkts) / 2
	qs := fdGoldenQueries
	rows := make([][]gsql.Tuple, len(qs))
	sink := func(i int) func(gsql.Tuple) error {
		return func(r gsql.Tuple) error { rows[i] = append(rows[i], r); return nil }
	}
	ckpt := make([]bool, len(qs))
	for i, q := range qs {
		st, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		ckpt[i] = st.Checkpointable() == nil
	}
	feed := func(m *gsql.MultiRun, pkts []netgen.Packet) {
		fdFeed(t, func(b *gsql.Batch) error { _, err := m.PushBatch(b); return err }, nil, pkts, frame)
	}
	finish := func(m *gsql.MultiRun, hs []*gsql.MultiHandle) {
		for i, h := range hs {
			if d.loose = fdGoldenLoose[i]; h != nil && ckpt[i] {
				d.bytes(h.Checkpoint())
			}
		}
		if err := m.CloseAll(); err != nil {
			t.Fatal(err)
		}
		for i, h := range hs {
			d.loose = fdGoldenLoose[i]
			if h != nil {
				d.stats(h.Stats())
			}
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
	hs := make([]*gsql.MultiHandle, len(qs))
	for i, q := range qs {
		if hs[i], err = m.Attach(q, 0, sink(i)); err != nil {
			t.Fatal(err)
		}
	}
	feed(m, pkts[:half])
	cks := make([][]byte, len(hs))
	for i, h := range hs {
		if d.loose = fdGoldenLoose[i]; ckpt[i] {
			cks[i] = d.bytes(h.Checkpoint())
		}
	}
	feed(m, pkts[half:])
	finish(m, hs)

	mr, err := gsql.NewMultiRun(e, "TCP", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		hs[i] = nil
		if ckpt[i] {
			if hs[i], err = mr.Restore(q, 0, cks[i], sink(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(mr, pkts[half:])
	finish(mr, hs)
}
