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
// Layout: one file per checkpoint epoch, `ingest-%08d.wal`:
//
//	header = 8-byte magic "FDSRV\x01\x00\x00" · u64 epoch
//	then sealed records (the ingest length+checksum envelope):
//	  u8 recFrame     · u64 session · u64 seq · u16 n · n×23-byte packets
//	  u8 recHeartbeat · u8 kind (0=int, 1=float) · f64/i64 payload
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
// stance the distrib WAL takes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/durable"
	"forwarddecay/netgen"
)

var walMagic = [8]byte{'F', 'D', 'S', 'R', 'V', 1, 0, 0}

const (
	recFrame     = 1
	recHeartbeat = 2

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

// walRecord is one replayable ingest event.
type walRecord struct {
	pos  walPos
	kind byte
	sess uint64          // recFrame
	seq  uint64          // recFrame
	pkts []netgen.Packet // recFrame
	hb   gsql.Value      // recHeartbeat (TInt or TFloat)
}

// walName formats the file name for an epoch.
func walName(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ingest-%08d.wal", epoch))
}

// ingestWAL is the append side. Not self-locking: the ingest listener's
// single pump goroutine is the only appender (rotation happens inside the
// pump's checkpoint hook), with the runtime builder touching it only before
// the listener exists.
type ingestWAL struct {
	dir     string
	epoch   uint64
	f       *os.File
	applied uint64 // records appended in the current epoch
	buf     []byte // reused encode buffer
	oldest  uint64 // lowest epoch that may still have a file; retire's, after openWAL
}

// LogFrame implements ingest.ApplyLog.
func (w *ingestWAL) LogFrame(session, seq uint64, pkts []netgen.Packet) error {
	b := append(ingest.ReserveSealed(w.buf[:0]), recFrame)
	b = binary.LittleEndian.AppendUint64(b, session)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(pkts)))
	for _, p := range pkts {
		b = netgen.AppendPacketRecord(b, p)
	}
	return w.writeSealed(b)
}

// LogHeartbeat implements ingest.ApplyLog.
func (w *ingestWAL) LogHeartbeat(ts gsql.Value) error {
	b := append(ingest.ReserveSealed(w.buf[:0]), recHeartbeat)
	switch ts.T {
	case gsql.TInt:
		b = append(b, hbInt)
		b = binary.LittleEndian.AppendUint64(b, uint64(ts.I))
	case gsql.TFloat:
		b = append(b, hbFloat)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ts.F))
	default:
		return fmt.Errorf("server: wal: heartbeat value type %v not persistable", ts.T)
	}
	return w.writeSealed(b)
}

// writeSealed seals the record body built after the reserved header in b (the
// reused encode buffer) and writes it. The write syscall lands the bytes in
// the file before the frame is acked, which is what makes an in-process kill
// recoverable.
func (w *ingestWAL) writeSealed(b []byte) error {
	ingest.SealInPlace(b, 0)
	w.buf = b
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("server: wal append: %w", err)
	}
	w.applied++
	return nil
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
	w.f, w.epoch, w.applied = f, w.epoch+1, 0
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
	hdr := make([]byte, 16)
	copy(hdr, walMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	if _, err := f.Write(hdr); err != nil {
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
		if len(data) < 16 || [8]byte(data[:8]) != walMagic {
			return nil, nil, fmt.Errorf("server: wal open: %s: bad header", base)
		}
		epoch := binary.LittleEndian.Uint64(data[8:16])
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
		return w, nil, nil
	}
	if w.f, err = os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, nil, fmt.Errorf("server: wal open: %w", err)
	}
	return w, recs, nil
}

func decodeWALRecord(body []byte) (walRecord, error) {
	if len(body) < 1 {
		return walRecord{}, errors.New("empty record body")
	}
	switch body[0] {
	case recFrame:
		if len(body) < 1+8+8+2 {
			return walRecord{}, fmt.Errorf("frame record header is %d bytes, want >= 19", len(body))
		}
		r := walRecord{
			kind: recFrame,
			sess: binary.LittleEndian.Uint64(body[1:]),
			seq:  binary.LittleEndian.Uint64(body[9:]),
		}
		n := int(binary.LittleEndian.Uint16(body[17:]))
		rest := body[19:]
		if len(rest) != n*netgen.PacketRecordSize {
			return walRecord{}, fmt.Errorf("frame record claims %d packets but carries %d bytes", n, len(rest))
		}
		r.pkts = make([]netgen.Packet, n)
		for i := 0; i < n; i++ {
			r.pkts[i] = netgen.DecodePacketRecord(rest[i*netgen.PacketRecordSize:])
		}
		return r, nil
	case recHeartbeat:
		if len(body) != 1+1+8 {
			return walRecord{}, fmt.Errorf("heartbeat record is %d bytes, want 10", len(body))
		}
		bits := binary.LittleEndian.Uint64(body[2:])
		switch body[1] {
		case hbInt:
			return walRecord{kind: recHeartbeat, hb: gsql.Int(int64(bits))}, nil
		case hbFloat:
			f := math.Float64frombits(bits)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return walRecord{}, fmt.Errorf("non-finite heartbeat %v", f)
			}
			return walRecord{kind: recHeartbeat, hb: gsql.Float(f)}, nil
		default:
			return walRecord{}, fmt.Errorf("unknown heartbeat kind %d", body[1])
		}
	default:
		return walRecord{}, fmt.Errorf("unknown record kind %d", body[0])
	}
}
