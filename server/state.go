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
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/codec"
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
// codec.Seal.

// beginState starts an image on b for the given number of queries.
func beginState(b []byte, walEpoch, walApplied uint64, nextQueryID uint32, queries int) []byte {
	b = codec.AppendU64(append(b, stateMagic[:]...), walEpoch)
	b = codec.AppendU32(codec.AppendU64(b, walApplied), nextQueryID)
	return codec.AppendU32(b, uint32(queries))
}

// appendQueryState appends one query: q's catalog fields and engine
// checkpoint, and the ring image read from ring.
func appendQueryState(b []byte, q *queryState, ring *resultLog) []byte {
	b = codec.AppendBytes32(codec.AppendU32(b, q.id), q.text)
	b = codec.AppendU32(b, 0) // shard count of older binaries
	b = codec.AppendBytes32(codec.AppendU64(b, q.startAt), q.ckpt)
	b = codec.AppendBool(ring.appendSnapshot(b), q.quarantined)
	if q.quarantined {
		b = codec.AppendBytes32(b, q.qreason)
	}
	return b
}

// finishState appends the session table, the last part of the payload.
func finishState(b []byte, sessions map[uint64]uint64) []byte {
	b = codec.AppendU32(b, uint32(len(sessions)))
	for id, applied := range sessions {
		b = codec.AppendU64(codec.AppendU64(b, id), applied)
	}
	return b
}

// stateQueryBytes is the least a query takes in a state file: its fixed
// fields and the length prefixes of the variable ones.
const stateQueryBytes = 4 + 4 + 4 + 8 + 4 + 8 + 8 + 4

// decodeState parses and verifies a state file image.
func decodeState(b []byte) (*serverState, error) {
	if len(b) < len(stateMagic)+8 {
		return nil, errors.New("server: state file too short")
	}
	version := b[7]
	if [7]byte(b[:7]) != [7]byte(stateMagic[:7]) || (version != stateVersionV1 && version != stateMagic[7]) {
		return nil, errors.New("server: state file: bad magic")
	}
	payload, ok := codec.Unseal(b)
	if !ok {
		return nil, errors.New("server: state file: checksum mismatch")
	}
	d := codec.NewDec(payload, "server: state file")
	d.Bytes(uint64(len(stateMagic)))
	st := &serverState{walEpoch: d.U64(), walApplied: d.U64(), nextQueryID: d.U32()}
	for range d.Count(uint64(d.U32()), stateQueryBytes) {
		q := queryState{id: d.U32(), text: string(d.Bytes32())}
		if shards := d.U32(); shards != 0 {
			// Written under -shards n: resuming the query on the serial
			// runtime would be a silent downgrade, so the load fails.
			return nil, fmt.Errorf("server: state file: query %d: %w", q.id,
				&gsql.ShardedUnsupportedError{Query: q.text, Shards: int(shards)})
		}
		q.startAt = d.U64()
		q.ckpt = append([]byte(nil), d.Bytes32()...)
		q.base, q.end = d.U64(), d.U64()
		for range d.Count(uint64(d.U32()), 2) {
			q.rows = append(q.rows, readRow(&d))
		}
		if version >= 2 && d.Bool() {
			q.quarantined, q.qreason = true, string(d.Bytes32())
		}
		st.queries = append(st.queries, q)
	}
	ns := d.Count(uint64(d.U32()), 16)
	st.sessions = make(map[uint64]uint64, ns)
	for range ns {
		id := d.U64()
		st.sessions[id] = d.U64()
	}
	if err := d.Done(); err != nil {
		return nil, err
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
	body := codec.AppendU32([]byte{e.op}, e.id)
	body = codec.AppendU64(codec.AppendU64(body, e.epoch), e.at)
	switch e.op {
	case jAttach:
		body = codec.AppendBytes32(codec.AppendU32(body, 0), e.text) // 0: shard count of older binaries
	case jQuarantine:
		body = codec.AppendBytes32(codec.AppendBytes32(body, e.reason), e.ckpt)
	}
	return body
}

func decodeJournalEntry(body []byte) (journalEntry, error) {
	d := codec.NewDec(body, "entry")
	e := journalEntry{op: d.U8(), id: d.U32(), epoch: d.U64(), at: d.U64()}
	switch e.op {
	case jAttach:
		shards := d.U32()
		e.text = string(d.Bytes32())
		if shards != 0 && d.Err() == nil {
			return e, fmt.Errorf("query %d: %w", e.id,
				&gsql.ShardedUnsupportedError{Query: e.text, Shards: int(shards)})
		}
	case jDetach, jRevive:
	case jQuarantine:
		e.reason = string(d.Bytes32())
		e.ckpt = append([]byte(nil), d.Bytes32()...)
	default:
		return e, fmt.Errorf("unknown journal op %d", e.op)
	}
	return e, d.Done()
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
