package server

// The checkpoint state file and the catalog journal.
//
// The state file is the service's restart anchor: for every attached query
// it holds the query text, the engine checkpoint (the paper's decayed
// partials, exact because forward-decay weights are fixed at arrival), and
// the result ring snapshot with its absolute cursors; plus the ingest
// session table and the WAL watermark (epoch, applied). Restart = load
// state + replay WAL past the watermark. The whole file is wrapped in a
// core.HashBytes trailer and written with durable.WriteFileAtomic.
//
// The catalog journal covers the gap BETWEEN checkpoints: attaching or
// detaching a query must survive a crash even if no checkpoint follows, so
// each attach/detach appends a sealed record here. An attach record carries
// the WAL position at which the query began receiving data; replay feeds it
// only records from that position on, which is what makes a mid-stream
// attach exact across a restart. Every entry is stamped with the WAL position
// it took effect at and recovery skips those before the state file's
// watermark, so the persister empties the journal after the state write, and
// only when it holds nothing newer than the state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/core"
	"forwarddecay/internal/durable"
)

// stateMagic's last byte is the format version. Version 2 added the
// per-query quarantine trailer (flag + reason); version-1 files are still
// accepted and decode with every query live.
var stateMagic = [8]byte{'F', 'D', 'S', 'T', 'A', 'T', 'E', 2}

const stateVersionV1 = 1

const (
	stateFile   = "server.state"
	journalFile = "catalog.journal"

	jAttach     = 1
	jDetach     = 2
	jQuarantine = 3
	jRevive     = 4
)

// queryState is one query's persisted slice of the state file. The ring
// image (base, rows, end) is filled by decoding only: a checkpoint encodes it
// straight from the live ring (appendQueryState).
type queryState struct {
	id      uint32
	text    string
	ckpt    []byte // engine checkpoint
	base    uint64 // result ring snapshot
	rows    []gsql.Tuple
	end     uint64 // highest assigned cursor at checkpoint time
	startAt uint64 // replay start within the checkpoint's WAL epoch
	// Quarantine trailer (state v2): a fenced query is persisted dormant —
	// ckpt holds the partials retained at the moment it was fenced, and the
	// rebuilt catalog does not re-attach it until an operator revives it.
	quarantined bool
	qreason     string
}

// serverState is the full parsed state file.
type serverState struct {
	walEpoch    uint64
	walApplied  uint64
	nextQueryID uint32
	queries     []queryState
	sessions    map[uint64]uint64
}

// A state file image is assembled in steps, so a checkpoint can encode each
// query as it visits it, its ring included, into one buffer: beginState,
// appendQueryState once per query, finishState — and, off the pump,
// sealState.

// beginState starts an image on b for the given number of queries.
func beginState(b []byte, walEpoch, walApplied uint64, nextQueryID uint32, queries int) []byte {
	b = append(b, stateMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, walEpoch)
	b = binary.LittleEndian.AppendUint64(b, walApplied)
	b = binary.LittleEndian.AppendUint32(b, nextQueryID)
	return binary.LittleEndian.AppendUint32(b, uint32(queries))
}

// appendQueryState appends one query: q's catalog fields and engine
// checkpoint, and the ring image read from ring.
func appendQueryState(b []byte, q *queryState, ring *resultLog) []byte {
	b = binary.LittleEndian.AppendUint32(b, q.id)
	b = appendString(b, q.text)
	b = binary.LittleEndian.AppendUint32(b, 0) // shard count of older binaries
	b = binary.LittleEndian.AppendUint64(b, q.startAt)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(q.ckpt)))
	b = append(b, q.ckpt...)
	b = ring.appendSnapshot(b)
	if q.quarantined {
		b = append(b, 1)
		return appendString(b, q.qreason)
	}
	return append(b, 0)
}

// finishState appends the session table, the last part of the payload.
func finishState(b []byte, sessions map[uint64]uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sessions)))
	for id, applied := range sessions {
		b = binary.LittleEndian.AppendUint64(b, id)
		b = binary.LittleEndian.AppendUint64(b, applied)
	}
	return b
}

// sealState appends the checksum trailer over a finished payload.
func sealState(b []byte) []byte {
	return binary.LittleEndian.AppendUint64(b, core.HashBytes(b))
}

// decodeState parses and verifies a state file image.
func decodeState(b []byte) (*serverState, error) {
	if len(b) < len(stateMagic)+8 {
		return nil, errors.New("server: state file too short")
	}
	version := int(b[7])
	if [7]byte(b[:7]) != [7]byte(stateMagic[:7]) || (version != stateVersionV1 && version != int(stateMagic[7])) {
		return nil, errors.New("server: state file: bad magic")
	}
	payload, trailer := b[:len(b)-8], binary.LittleEndian.Uint64(b[len(b)-8:])
	if core.HashBytes(payload) != trailer {
		return nil, errors.New("server: state file: checksum mismatch")
	}
	d := decoder{b: payload, off: 8}
	st := &serverState{sessions: map[uint64]uint64{}}
	st.walEpoch = d.u64()
	st.walApplied = d.u64()
	st.nextQueryID = d.u32()
	nq := d.u32()
	if d.err == "" && int64(nq) > int64(len(payload)) {
		return nil, errors.New("server: state file: forged query count")
	}
	for i := uint32(0); i < nq && d.err == ""; i++ {
		var q queryState
		q.id = d.u32()
		q.text = d.str()
		if shards := d.u32(); d.err == "" && shards != 0 {
			// Written under -shards n: resuming the query on the serial
			// runtime would be a silent downgrade, so the load fails.
			return nil, fmt.Errorf("server: state file: query %d: %w", q.id,
				&gsql.ShardedUnsupportedError{Query: q.text, Shards: int(shards)})
		}
		q.startAt = d.u64()
		cl := d.u32()
		if d.err == "" {
			q.ckpt = append([]byte(nil), d.take(int(cl))...)
		}
		q.base = d.u64()
		q.end = d.u64()
		nr := d.u32()
		if d.err == "" && int64(nr) > int64(len(payload)) {
			return nil, errors.New("server: state file: forged row count")
		}
		for r := uint32(0); r < nr && d.err == ""; r++ {
			q.rows = append(q.rows, d.row())
		}
		if version >= 2 {
			if d.u8() != 0 {
				q.quarantined = true
				q.qreason = d.str()
			}
		}
		st.queries = append(st.queries, q)
	}
	ns := d.u32()
	for i := uint32(0); i < ns && d.err == ""; i++ {
		id := d.u64()
		st.sessions[id] = d.u64()
	}
	if d.err != "" {
		return nil, fmt.Errorf("server: state file: offset %d: %s", d.off, d.err)
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("server: state file: %d trailing bytes", len(payload)-d.off)
	}
	return st, nil
}

// writeState durably replaces the state file with a finished image.
func writeState(dir string, image []byte) error {
	return durable.WriteFileAtomic(filepath.Join(dir, stateFile), image, 0o644)
}

// loadState reads the state file; a missing file returns (nil, nil) — a
// fresh directory, not an error.
func loadState(dir string) (*serverState, error) {
	b, err := os.ReadFile(filepath.Join(dir, stateFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: state: %w", err)
	}
	return decodeState(b)
}

// journalEntry is one catalog mutation since the last checkpoint.
type journalEntry struct {
	op   byte
	id   uint32
	text string // attach
	// epoch/at pin where in the WAL the mutation took effect: replay feeds an
	// attached or revived query only records from there on, and an entry
	// before the state file's watermark is skipped. Epoch 0 (detach and
	// quarantine entries of older binaries) is unpositioned: always applied.
	epoch uint64
	at    uint64
	// Quarantine payload: why the query was fenced and the partials
	// retained at that instant (the revive seed). A fenced query sees
	// nothing until revived, so this checkpoint needs no WAL alignment.
	reason string // quarantine
	ckpt   []byte // quarantine
}

func encodeJournalEntry(e journalEntry) []byte {
	return ingest.AppendSealed(nil, encodeJournalBody(e))
}

func encodeJournalBody(e journalEntry) []byte {
	body := []byte{e.op}
	body = binary.LittleEndian.AppendUint32(body, e.id)
	body = binary.LittleEndian.AppendUint64(body, e.epoch)
	body = binary.LittleEndian.AppendUint64(body, e.at)
	switch e.op {
	case jAttach:
		body = binary.LittleEndian.AppendUint32(body, 0) // shard count of older binaries
		body = appendString(body, e.text)
	case jQuarantine:
		body = appendString(body, e.reason)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(e.ckpt)))
		body = append(body, e.ckpt...)
	}
	return body
}

func decodeJournalEntry(body []byte) (journalEntry, error) {
	d := decoder{b: body}
	var e journalEntry
	e.op = d.u8()
	e.id = d.u32()
	e.epoch = d.u64()
	e.at = d.u64()
	switch e.op {
	case jAttach:
		shards := d.u32()
		e.text = d.str()
		if d.err == "" && shards != 0 {
			return e, fmt.Errorf("query %d: %w", e.id,
				&gsql.ShardedUnsupportedError{Query: e.text, Shards: int(shards)})
		}
	case jDetach, jRevive:
	case jQuarantine:
		e.reason = d.str()
		cl := d.u32()
		if d.err == "" {
			if int(cl) > len(body) {
				return e, errors.New("forged quarantine checkpoint length")
			}
			e.ckpt = append([]byte(nil), d.take(int(cl))...)
		}
	default:
		return e, fmt.Errorf("unknown journal op %d", e.op)
	}
	if d.err != "" {
		return e, errors.New(d.err)
	}
	if d.off != len(body) {
		return e, fmt.Errorf("%d trailing bytes", len(body)-d.off)
	}
	return e, nil
}

// journal is the catalog journal of a state directory. Its mutex orders
// appends (under s.mu or rt.mu, which are outer to it) against the persister's
// reset; held/newest let that reset decide without reading the file.
type journal struct {
	mu     sync.Mutex
	dir    string
	held   bool   // the file is not empty
	newest uint64 // highest epoch stamped on an entry it holds
}

// append appends one sealed entry and syncs the file: an attach the client
// saw acknowledged must survive a crash.
func (j *journal) append(e journalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(j.dir, journalFile), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server: journal: %w", err)
	}
	defer f.Close()
	// Before the write: even a failed one may leave bytes behind.
	j.held, j.newest = true, max(j.newest, e.epoch)
	if _, err := f.Write(encodeJournalEntry(e)); err != nil {
		return fmt.Errorf("server: journal: %w", err)
	}
	return durable.SyncFile(f)
}

// load reads every intact entry. A torn tail (crash mid-append: the client
// never saw that attach acknowledged) is cut off, so no append lands behind it.
func (j *journal) load() ([]journalEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.held, j.newest = false, 0
	path := filepath.Join(j.dir, journalFile)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: journal: %w", err)
	}
	var out []journalEntry
	off := 0
	for off < len(b) {
		body, n, derr := ingest.DecodeSealed(b[off:], MaxControlFrame)
		if errors.Is(derr, ingest.ErrIncomplete) {
			if err := os.Truncate(path, int64(off)); err != nil {
				return nil, fmt.Errorf("server: journal: truncating torn tail: %w", err)
			}
			break
		}
		if derr != nil {
			return nil, fmt.Errorf("server: journal: offset %d: %w", off, derr)
		}
		e, jerr := decodeJournalEntry(body)
		if jerr != nil {
			return nil, fmt.Errorf("server: journal: offset %d: %w", off, jerr)
		}
		out = append(out, e)
		j.held, j.newest = true, max(j.newest, e.epoch)
		off += n
	}
	return out, nil
}

// resetBelow empties the journal once a durable state file with watermark
// (epoch, 0) has folded its entries in — unless it is empty already, or holds
// an entry appended since that cut: the stale prefix then stays, which
// recovery skips, until a later checkpoint finds the journal quiet.
func (j *journal) resetBelow(epoch uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.held || j.newest >= epoch {
		return nil
	}
	if err := durable.WriteFileAtomic(filepath.Join(j.dir, journalFile), nil, 0o644); err != nil {
		return err
	}
	j.held, j.newest = false, 0
	return nil
}
