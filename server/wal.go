package server

// The service's ingest write-ahead log: the listener logs every data frame
// and heartbeat here BEFORE applying it (ingest.Config.WAL), so the ack,
// sent after apply, implies the data is recoverable, and because forward
// decay fixes each arrival's weight at arrival time, replaying the records
// past the last checkpoint reproduces the uninterrupted output bit-exactly.
// Catalog changes are records too, at the position where they changed the
// live catalog (Service.replay), each synced before it is acknowledged.
//
// One file per checkpoint epoch, `ingest-%08d.wal`, on the shared segment
// log (internal/durable), headed by "FDSRV\x01\x00\x00" · u64 epoch:
//
//	u8 recFrame      · u64 session · u64 seq · u16 n · n×23-byte packets
//	u8 recHeartbeat  · u8 kind (0=int, 1=float) · f64/i64 payload
//	u8 recAttach     · u32 id · bytes32 text
//	u8 recDetach     · u32 id
//	u8 recQuarantine · u32 id · bytes32 reason · bytes32 partials
//	u8 recRevive     · u32 id
//
// A checkpoint's cut (DESIGN.md §16) stamps its image with the watermark
// (E+1, 0) and rotates to epoch E+1; the persister seals file E, writes the
// state file, then retires the files up to E. Recovery (openWAL) deletes the
// files before the state file's epoch and replays from its watermark.

import (
	"fmt"
	"math"
	"os"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/durable"
	"forwarddecay/netgen"
)

const (
	recFrame      = 1
	recHeartbeat  = 2
	recAttach     = 3
	recDetach     = 4
	recQuarantine = 5
	recRevive     = 6

	hbInt   = 0
	hbFloat = 1

	// walMaxRecord bounds a sealed record body: the largest data frame the
	// ingest listener accepts, plus the record header.
	walMaxRecord = ingest.DefaultMaxFrame + 32
)

var walFormat = durable.LogFormat{Name: "ingest-%08d.wal", Magic: [8]byte{'F', 'D', 'S', 'R', 'V', 1, 0, 0}, MaxRecord: walMaxRecord}

// walPos is a position in the log: index at in the file of an epoch. The
// zero value is before everything (epochs start at 1).
type walPos struct{ epoch, at uint64 }

func (p walPos) before(q walPos) bool {
	return p.epoch < q.epoch || (p.epoch == q.epoch && p.at < q.at)
}

// walRecord is one replayable event: an ingest frame or heartbeat, or a
// catalog change.
type walRecord struct {
	pos  walPos
	kind byte
	sess uint64          // recFrame
	seq  uint64          // recFrame
	pkts []netgen.Packet // recFrame
	hb   gsql.Value      // recHeartbeat (TInt or TFloat)
	id   uint32          // catalog records: the query
	text string          // recAttach: the query text; recQuarantine: the reason
	ckpt []byte          // recQuarantine: the partials retained at the fence
}

// appendBody appends the record's body, the bytes its seal covers.
func (r *walRecord) appendBody(b []byte) []byte {
	b = append(b, r.kind)
	switch r.kind {
	case recFrame:
		b = codec.AppendU64(codec.AppendU64(b, r.sess), r.seq)
		b = codec.AppendU16(b, uint16(len(r.pkts)))
		for _, p := range r.pkts {
			b = netgen.AppendPacketRecord(b, p)
		}
	case recHeartbeat:
		if r.hb.T == gsql.TFloat {
			return codec.AppendF64(append(b, hbFloat), r.hb.F)
		}
		b = codec.AppendU64(append(b, hbInt), uint64(r.hb.I))
	default:
		b = codec.AppendU32(b, r.id)
		switch r.kind {
		case recAttach:
			b = codec.AppendBytes32(b, r.text)
		case recQuarantine:
			b = codec.AppendBytes32(codec.AppendBytes32(b, r.text), r.ckpt)
		}
	}
	return b
}

func decodeWALRecord(body []byte) (walRecord, error) {
	d := codec.NewDec(body, "server: wal record")
	r := walRecord{kind: d.U8()}
	switch r.kind {
	case recFrame:
		r.sess, r.seq = d.U64(), d.U64()
		r.pkts = make([]netgen.Packet, d.Count(uint64(d.U16()), netgen.PacketRecordSize))
		for i := range r.pkts {
			r.pkts[i] = netgen.DecodePacketRecord(d.Bytes(netgen.PacketRecordSize))
		}
	case recHeartbeat:
		switch kind, bits := d.U8(), d.U64(); {
		case d.Err() != nil:
		case kind == hbInt:
			r.hb = gsql.Int(int64(bits))
		case kind == hbFloat && finite(math.Float64frombits(bits)):
			r.hb = gsql.Float(math.Float64frombits(bits))
		default:
			d.Failf("heartbeat kind %d, bits %#x", kind, bits)
		}
	case recAttach, recDetach, recQuarantine, recRevive:
		r.id = d.U32()
		switch r.kind {
		case recAttach:
			r.text = string(d.Bytes32())
		case recQuarantine:
			r.text = string(d.Bytes32())
			r.ckpt = append([]byte(nil), d.Bytes32()...)
		}
	default:
		d.Failf("unknown record kind %d", r.kind)
	}
	return r, d.Done()
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ingestWAL is the append side. Not self-locking: appends and the rotation
// run under rt.mu (a degraded incarnation appends only from its pump), and
// the persister's seal and retire follow the rotation they complete, in
// persistMu's order.
type ingestWAL struct {
	log     *durable.Log
	epoch   uint64 // the log's active segment
	applied uint64 // records appended in the current epoch
}

// LogFrame implements ingest.ApplyLog.
func (w *ingestWAL) LogFrame(session, seq uint64, pkts []netgen.Packet) error {
	return w.write(&walRecord{kind: recFrame, sess: session, seq: seq, pkts: pkts})
}

// LogHeartbeat implements ingest.ApplyLog.
func (w *ingestWAL) LogHeartbeat(ts gsql.Value) error {
	if !(ts.T == gsql.TInt || ts.T == gsql.TFloat && finite(ts.F)) {
		return fmt.Errorf("server: wal: heartbeat %v not persistable", ts)
	}
	return w.write(&walRecord{kind: recHeartbeat, hb: ts})
}

// write appends the record: its bytes are in the file, one write syscall,
// before the frame is acked, so an in-process kill loses nothing acked.
func (w *ingestWAL) write(r *walRecord) error {
	err := w.log.Commit(r.appendBody(w.log.Begin()))
	if err == nil {
		w.applied++
	}
	return err
}

// logCatalog appends a catalog record and makes it durable before the change
// is acknowledged. A quarantine's partials are left out when they would make
// the record too large: a revive after a crash then starts the query fresh.
func (w *ingestWAL) logCatalog(r walRecord) error {
	if r.kind == recQuarantine && 1+4+4+len(r.text)+4+len(r.ckpt) > walMaxRecord {
		r.ckpt = nil
	}
	if err := w.write(&r); err != nil {
		return err
	}
	return w.log.Sync()
}

// rotate switches appends to the next epoch, on the pump and without waiting
// on the disk, and returns the previous epoch's file for the persister to
// seal.
func (w *ingestWAL) rotate() (old *os.File, err error) {
	if old, err = w.log.Rotate(); err == nil {
		w.epoch, w.applied = w.log.Seg(), 0
	}
	return old, err
}

// retire removes the files of the epochs up to through, which a durable
// state file now covers. Persister only.
func (w *ingestWAL) retire(through uint64) error {
	_, err := w.log.Remove(func(epoch uint64) bool { return epoch <= through })
	return err
}

// close closes the epoch file, also to fence a wedged pump's append.
func (w *ingestWAL) close() error { return w.log.Close() }

// openWAL applies the recovery rule to dir and returns the records at or
// after from with their positions. The appender continues the newest epoch,
// or starts epoch max(from.epoch, 1).
func openWAL(dir string, from walPos) (w *ingestWAL, recs []walRecord, err error) {
	w = &ingestWAL{}
	w.log, err = durable.OpenLog(dir, walFormat, from.epoch, func(epoch uint64, body []byte) error {
		if epoch != w.epoch {
			w.epoch, w.applied = epoch, 0
		}
		rec, err := decodeWALRecord(body)
		if err != nil {
			return err
		}
		if rec.pos = (walPos{epoch, w.applied}); !rec.pos.before(from) {
			recs = append(recs, rec)
		}
		w.applied++
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("server: wal open: %w", err)
	}
	if w.log.Seg() != w.epoch {
		w.epoch, w.applied = w.log.Seg(), 0
	}
	return w, recs, nil
}
