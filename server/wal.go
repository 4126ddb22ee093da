package server

// The service's ingest write-ahead log: the listener logs every data frame
// and heartbeat here BEFORE applying it (ingest.Config.WAL), so the ingest
// ack — sent after apply — implies the data is recoverable. A supervised
// restart replays the records past the last checkpoint's watermark into the
// rebuilt runs, and — because forward decay fixes each arrival's weight at
// arrival time — reproduces the uninterrupted output bit-exactly.
//
// Frame records carry their session and sequence number, so recovery also
// rebuilds the duplicate-detection table: a frame that was logged but whose
// ack was lost to the crash will be resent by the client and recognized as
// a duplicate instead of double-counted. Heartbeat records preserve the
// gsql.Value *type* (Int and Float heartbeats take different temporal-
// bucket paths through the engine).
//
// The log also holds the catalog: an attach, detach, quarantine or revive is
// a record at the position where it changed the live catalog, so recovery
// walks one log in order and applies each record as the live path did
// (Service.replay). A catalog record is fsynced before the change is
// acknowledged (logCatalog).
//
// Layout: one file per checkpoint epoch, `ingest-%08d.wal`:
//
//	header = 8-byte magic "FDSRV\x01\x00\x00" · u64 epoch
//	then sealed records (the ingest length+checksum envelope):
//	  u8 recFrame      · u64 session · u64 seq · u16 n · n×23-byte packets
//	  u8 recHeartbeat  · u8 kind (0=int, 1=float) · f64/i64 payload
//	  u8 recAttach     · u32 id · bytes32 text
//	  u8 recDetach     · u32 id
//	  u8 recQuarantine · u32 id · bytes32 reason · bytes32 partials
//	  u8 recRevive     · u32 id
//
// Epoch discipline: a checkpoint is a cut on the ingest pump and a persist
// behind it (Service.checkpoint, Service.persist; DESIGN.md §16). The cut,
// taken with every record of epoch E applied, stamps its state image with the
// watermark (E+1, 0) and switches appends to a new file E+1; the persister
// fsyncs file E, writes the state file, and only then removes the files older
// than E+1. A log position is thus a pair (epoch, index in that epoch's
// file), several epochs can be on disk at once, and recovery is one rule
// (openWAL): with S the state file's watermark (none: the start of the log),
// delete the files of epochs before S's and replay every record at or after S.
//
// A torn final record (crash mid-append) is truncated away: its frame was
// never acked, so the client will resend it. It is tolerated only at the end
// of the newest file that has records; torn bytes anywhere else are
// corruption and refuse to load. Each record lands in the file (one write
// syscall) before the ack goes out — durable against a process kill; the
// power-cut story is the persister's fsyncs and directory syncs, the same
// stance the distrib WAL takes, plus each catalog record's own fsync.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/durable"
	"forwarddecay/netgen"
)

var walMagic = [8]byte{'F', 'D', 'S', 'R', 'V', 1, 0, 0}

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

// walName formats the file name for an epoch.
func walName(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ingest-%08d.wal", epoch))
}

// ingestWAL is the append side. Not self-locking: every append and the
// rotation run under rt.mu — the pump's frames, heartbeats and quarantines,
// the control plane's other catalog records, the pump's checkpoint hook — and
// a degraded incarnation, which has no catalog, appends only from its pump.
// The runtime builder touches it before the listener exists.
type ingestWAL struct {
	dir     string
	epoch   uint64
	f       *os.File
	applied uint64 // records appended in the current epoch
	buf     []byte // reused encode buffer
	oldest  uint64 // lowest epoch that may still have a file; retire's, after openWAL
	named   bool   // the current epoch's file name is known durable
	err     error  // sticky: a failed append may leave torn bytes, so none follows it
}

// LogFrame implements ingest.ApplyLog.
func (w *ingestWAL) LogFrame(session, seq uint64, pkts []netgen.Packet) error {
	r := walRecord{kind: recFrame, sess: session, seq: seq, pkts: pkts}
	return w.write(&r)
}

// LogHeartbeat implements ingest.ApplyLog.
func (w *ingestWAL) LogHeartbeat(ts gsql.Value) error {
	if !(ts.T == gsql.TInt || ts.T == gsql.TFloat && finite(ts.F)) {
		return fmt.Errorf("server: wal: heartbeat %v not persistable", ts)
	}
	return w.write(&walRecord{kind: recHeartbeat, hb: ts})
}

// write seals the record in the reused encode buffer and writes it. The
// write syscall lands the bytes in the file before the frame is acked, which
// is what makes an in-process kill recoverable.
func (w *ingestWAL) write(r *walRecord) error {
	if w.err != nil {
		return w.err
	}
	b := r.appendBody(ingest.ReserveSealed(w.buf[:0]))
	w.buf = b
	if len(b)-ingest.SealedHeaderSize > walMaxRecord {
		return fmt.Errorf("server: wal: a %d-byte record exceeds the %d-byte limit", len(b)-ingest.SealedHeaderSize, walMaxRecord)
	}
	ingest.SealInPlace(b, 0)
	if _, err := w.f.Write(b); err != nil {
		w.err = fmt.Errorf("server: wal append: %w", err)
		return w.err
	}
	w.applied++
	return nil
}

// logCatalog appends a catalog record and makes it durable before the change
// is acknowledged: the directory is synced first when the epoch file's name
// may not be durable yet (a rotation creates it unsynced), then the file.
// A quarantine's partials are left out when they would make the record too
// large: a revive after a crash then starts the query fresh.
func (w *ingestWAL) logCatalog(r walRecord) error {
	if r.kind == recQuarantine && 1+4+4+len(r.text)+4+len(r.ckpt) > walMaxRecord {
		r.ckpt = nil
	}
	if err := w.write(&r); err != nil {
		return err
	}
	if !w.named {
		if w.err = durable.SyncDir(w.dir); w.err != nil {
			return w.err
		}
		w.named = true
	}
	w.err = durable.SyncFile(w.f)
	return w.err
}

// rotate switches appends to the next epoch — on the pump, so a plain create
// and nothing that waits on the disk — and returns the previous epoch's file,
// still open, for the persister to fsync.
func (w *ingestWAL) rotate() (old *os.File, err error) {
	f, err := createWAL(w.dir, w.epoch+1)
	if err != nil {
		return nil, err
	}
	old = w.f
	w.f, w.epoch, w.applied, w.named = f, w.epoch+1, 0, false
	return old, nil
}

// retire removes the files of the epochs up to through, which a durable
// state file now covers, and syncs the directory. Persister only.
func (w *ingestWAL) retire(through uint64) error {
	for ; w.oldest <= through; w.oldest++ {
		if err := os.Remove(walName(w.dir, w.oldest)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("server: wal retire: %w", err)
		}
	}
	return durable.SyncDir(w.dir)
}

// close closes the epoch file. w.f is deliberately left non-nil: the
// supervisor closes an abandoned incarnation's WAL to fence a wedged pump,
// which may concurrently attempt an append — File.Write and File.Close are
// synchronized by the runtime, but storing nil here would be a data race
// with that append's field read. A post-close append simply errors.
func (w *ingestWAL) close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}

// createWAL creates (exclusively) and headers the file for an epoch. The
// name is not synced here: the persister's directory sync makes it durable
// before any state file that refers to the epoch.
func createWAL(dir string, epoch uint64) (*os.File, error) {
	f, err := os.OpenFile(walName(dir, epoch), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: wal create: %w", err)
	}
	hdr := append(make([]byte, 0, len(walMagic)+8), walMagic[:]...)
	if _, err := f.Write(codec.AppendU64(hdr, epoch)); err != nil {
		f.Close()
		return nil, fmt.Errorf("server: wal create: %w", err)
	}
	return f, nil
}

// openWAL applies the recovery rule to dir: files of epochs before from's
// are deleted, the others read in epoch order, and the records at or after
// from returned with their positions; a torn tail is repaired where one can
// occur (see the header). The appender continues the newest epoch, or starts
// epoch max(from.epoch, 1) in a directory with no file left.
func openWAL(dir string, from walPos) (w *ingestWAL, recs []walRecord, err error) {
	names, err := filepath.Glob(filepath.Join(dir, "ingest-*.wal"))
	if err != nil {
		return nil, nil, fmt.Errorf("server: wal open: %w", err)
	}
	sort.Strings(names)
	w = &ingestWAL{dir: dir}
	var newest string          // the newest kept file
	torn := map[string]int64{} // files ending in a torn record, and its offset
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("server: wal open: %w", err)
		}
		base := filepath.Base(name)
		hdr := codec.NewDec(data, base)
		magic, epoch := hdr.Bytes(8), hdr.U64()
		if hdr.Err() != nil || [8]byte(magic) != walMagic {
			return nil, nil, fmt.Errorf("server: wal open: %s: bad header", base)
		}
		if epoch < from.epoch {
			if err := os.Remove(name); err != nil {
				return nil, nil, fmt.Errorf("server: wal open: removing superseded %s: %w", base, err)
			}
			continue
		}
		if newest == "" {
			w.oldest = epoch
		}
		newest, w.epoch, w.applied = name, epoch, 0
		for off := 16; off < len(data); {
			body, n, derr := ingest.DecodeSealed(data[off:], walMaxRecord)
			if errors.Is(derr, ingest.ErrIncomplete) {
				torn[name] = int64(off) // crash mid-append; the frame was never acked
				break
			}
			if derr != nil {
				return nil, nil, fmt.Errorf("server: wal open: %s: offset %d: %w", base, off, derr)
			}
			rec, rerr := decodeWALRecord(body)
			if rerr != nil {
				return nil, nil, fmt.Errorf("server: wal open: %s: offset %d: %w", base, off, rerr)
			}
			if len(torn) > 0 {
				return nil, nil, fmt.Errorf("server: wal open: %s continues the log past a torn record", base)
			}
			rec.pos = walPos{epoch, w.applied}
			if !rec.pos.before(from) {
				recs = append(recs, rec)
			}
			w.applied++
			off += n
		}
	}
	for name, at := range torn {
		if err := os.Truncate(name, at); err != nil {
			return nil, nil, fmt.Errorf("server: wal open: truncating torn tail: %w", err)
		}
	}
	if newest == "" {
		w.epoch = max(from.epoch, 1)
		w.oldest = w.epoch
		if w.f, err = createWAL(dir, w.epoch); err != nil {
			return nil, nil, err
		}
		if err := durable.SyncDir(dir); err != nil {
			w.f.Close()
			return nil, nil, err
		}
		w.named = true
		return w, nil, nil
	}
	if w.f, err = os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, nil, fmt.Errorf("server: wal open: %w", err)
	}
	return w, recs, nil
}
