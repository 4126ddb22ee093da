package gsql

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Multi-query runtime: one pass over the stream for many standing queries.
//
// A MultiRun registers any number of prepared statements against a single
// ingest feed and evaluates each predicate class's WHERE bitmap once per
// batch segment instead of once per query — every `col = literal` class on
// an int or bool column in one hashed pass per column (eqindex.go) — and
// the members of a class that group by the same key list fold through one
// key table: its group kernels
// run, its keys are built, hashed and probed, and its buckets are sorted and
// flushed once, while each member steps only its own aggregates over the
// table's groups (keyTable). Each member runs its own argument kernels.
// There is one row path: PushBatch, and Push is a one-row PushBatch. A
// member's plan is the one Engine.Prepare compiles, with WHERE stripped.
//
//   - Predicate classes: queries are grouped by canonical WHERE clause. The
//     class evaluates its filter as one vectorized selection bitmap shared
//     by all members, and a segment with no surviving rows skips the members
//     outright.
//   - Statement dedup: attaching the same query text twice shares one
//     compiled plan (a refcounted catalog entry); each attach still owns an
//     independent Run, so results, cursors and checkpoints stay per-query.
//   - Shared key tables: a member joins a table of its class with the same
//     canonical key list and table config only while the two are identical
//     — empty, same size, bucket, key form and landmark: at attach, or at a
//     bucket close right after both flushed (rejoin). A member whose outcome
//     of a table step differs from its neighbours' (a failed group birth,
//     eviction merge, flush or sink) goes on alone from a copy of the table
//     taken at that point (split), so every member's rows, checkpoints and
//     counters are those of a table of its own. A row whose WHERE or group
//     key fails fails every sharer alike, and a failed argument is charged
//     to its member alone after the shared probe; neither splits the table.
//     Quarantine, detach and the cardinality cap take only the member's own
//     aggregates with it.
//
// The per-tuple cost of N queries over a shared-heavy workload is therefore
// one shared pass plus the per-query fold of only the queries whose filter
// passes — the Gigascope observation that a thousand LFTAs over one NIC
// should cost one scan, applied at the expression level.
//
// Catalog-scale operations (attach/detach churn, hostile queries):
//
//   - Incremental rebuild: every attach and detach updates the statement
//     catalog, predicate classes and key tables in place — membership lists
//     use swap-remove via stored positions, and a statement or class goes
//     with its last reference — so attach/detach latency is O(query),
//     independent of the catalog size.
//   - Fault isolation: there is one fold/shift/heartbeat/segment loop, and
//     it contains every member's faults. A failed row is charged to its
//     query, which goes on with its next row, and the row continues for the
//     neighbours, so the outcome does not depend on frame size; a query whose
//     private expressions panic, whose error streak trips the breaker, or
//     whose group table exceeds the cardinality cap (Options.Isolate sets
//     the limits) is fenced into a Quarantined state. Its statement
//     reference, key table and class membership are released and its last
//     checkpoint retained for an operator-initiated Revive; every other
//     query continues bit-for-bit as if the offender were never attached.
//   - Admission control (Options.Isolate.AdmitBudget): Attach estimates the
//     per-tuple cost of the candidate's expressions (its WHERE at a flat
//     charge when its predicate class already runs or the equality index
//     serves it) against a catalog-wide budget and rejects with a typed
//     *AdmissionError before touching any catalog state.
//
// Sharing safety invariants:
//
//   - Single producer. A MultiRun, like a Run, is driven by one goroutine;
//     its scratch state is unsynchronized, and its members borrow one batch
//     scratch in turn.
//   - A class predicate and a member's kernels are those a standalone plan
//     of the same text compiles, so they read the same values, errors
//     included, row for row.
//   - Epoch rollovers are runtime-wide: one shared supervisor observes the
//     stream clock once per tuple and shifts every member's landmark at the
//     same point of the sequence, so decay state never straddles landmarks
//     across members.
//   - One feed. A member sees tuples only through Push/PushBatch/Heartbeat
//     of the runtime; recovery restores members (Restore) at their position
//     in a log and re-feeds the log through the same pass.
//   - No empty class exists: a class is created by the attach that links
//     its first member and pruned with its last, so every loop may assume
//     len(cls.members) > 0.
type MultiRun struct {
	eng    *Engine
	schema *Schema
	opts   Options
	iso    IsolateConfig // opts.Isolate, or the zero config when it is nil

	// stmts is the statement catalog, by exact text.
	stmts map[string]*multiStmt

	classes    []*predClass
	classByKey map[string]*predClass
	// eq is the equality index of each schema column (eqindex.go).
	eq []eqIndex

	entries map[uint64]*multiEntry
	nextID  uint64

	// admitUsed is the summed private-cost estimate of every admitted query
	// (quarantined ones excluded), checked against iso.AdmitBudget.
	admitUsed float64

	// tuples is the shared feed position: every attached member has seen
	// every tuple since its attach point. Per-run counters are derived
	// lazily (r.tuples = m.tuples + entry offset) at checkpoint and stats
	// time, so the hot path pays one increment for N queries.
	tuples uint64

	ep          *epochState
	curL        float64
	landmarkSet bool

	// Batch scratch: the finite bitmap, Push's one-row batch, and mbx — the
	// epoch scan's state and the fold scratch every member borrows in turn.
	valid []uint64
	mbx   *batchExec
	one   *Batch

	// The first row of the segment being folded: a failed row is charged at
	// feed position m.tuples + row - segLo + 1.
	segLo int

	// tableIDs counts the key tables ever listed; tabs is eachTable's
	// scratch list of them.
	tableIDs uint64
	tabs     []*keyTable
}

// IsolateConfig sets the limits of per-query fault isolation and admission
// control in a MultiRun. Isolation itself is not optional: under the zero
// value (which a nil *IsolateConfig in Options means) a member's panic is
// contained and quarantines it, and a member's error is counted in
// QueryStats.Errors while the tuple continues for its neighbours; the fields
// add a breaker, a cardinality cap and an admission budget on top.
type IsolateConfig struct {
	// BreakerErrors quarantines a query after this many consecutive failed
	// rows (its WHERE, private expressions, aggregate steps or sink erroring
	// row after row; a row that folds cleanly resets the streak, a row the
	// WHERE rejects leaves it). 0 disables the breaker; transient errors
	// then only count toward QueryStats.Errors. The count is per row
	// whatever the frame size.
	BreakerErrors int
	// MaxGroups quarantines a query whose live group population (current
	// bucket) exceeds the cap — the group-key cardinality bomb. 0 disables
	// the cap.
	MaxGroups int
	// AdmitBudget is the catalog-wide budget for the members' estimated
	// per-tuple cost, in estimated ns/tuple (the same unit QueryStats
	// reports). A candidate's estimate prices its group expressions and
	// aggregate steps, and its WHERE — at a flat charge when its predicate
	// class already runs or the equality index serves it; it depends on
	// nothing else in the catalog.
	// Attach rejects with *AdmissionError when the estimate would push the
	// catalog over. 0 disables admission control.
	AdmitBudget float64
	// OnQuarantine, when set, is called synchronously (on the producer
	// goroutine, mid-Push) each time a query is fenced. It must not call
	// back into the MultiRun.
	OnQuarantine func(QuarantineEvent)
}

// ewmaAlpha smooths each member's measured ns/tuple. sampleRows spaces the
// samples: a clock read costs about as much as folding a row, so a member's
// segment is timed only once this many of its rows have folded untimed —
// every segment of a 32-row frame, one row in 32 of Push's one-row frames.
const (
	ewmaAlpha  = 0.2
	sampleRows = 32
)

// Quarantine reasons, as reported by QueryStats.Reason and QuarantineEvent.
const (
	QuarantinePanic       = "panic"
	QuarantineBreaker     = "breaker"
	QuarantineCardinality = "cardinality"
	QuarantineEpoch       = "epoch-shift"
	QuarantineSink        = "sink" // MultiHandle.Fault: its rows could not be taken
)

// QuarantineEvent describes one query being fenced out of the shared feed.
type QuarantineEvent struct {
	ID     uint64
	Tag    any    // caller's tag, set via MultiHandle.SetTag
	Text   string // query text
	Reason string // Quarantine* constant
	Err    error  // the triggering error (panic text for QuarantinePanic)
	// Retained is the best-effort checkpoint taken at quarantine time (nil
	// when the run's state was too damaged to serialize); Revive resumes
	// from it.
	Retained []byte
	// Tuples is the query's tuple counter at quarantine time.
	Tuples uint64
}

// AdmissionError reports an attach rejected by admission control: the
// candidate's estimated private per-tuple cost would push the catalog over
// its budget. The running catalog is left untouched.
type AdmissionError struct {
	Query   string
	EstCost float64 // candidate's estimated private ns/tuple
	Used    float64 // already-admitted estimate sum
	Budget  float64
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("gsql: admission rejected: query costs ~%.0f ns/tuple, catalog at %.0f of %.0f",
		e.EstCost, e.Used, e.Budget)
}

// ShardedUnsupportedError reports a request to run a catalog member sharded.
// Every member is a serial Run: Attach/Restore refuse a non-zero shard count,
// and the service a persisted one, rather than silently run it serial.
type ShardedUnsupportedError struct {
	Query  string
	Shards int
}

func (e *ShardedUnsupportedError) Error() string {
	return fmt.Sprintf("gsql: sharded execution is not supported (shards=%d): %s", e.Shards, e.Query)
}

// predClass is one WHERE-clause equivalence class: the queries whose filter
// is canonically identical, sharing one selection bitmap per batch segment.
type predClass struct {
	key string // canonical WHERE key; "" for unfiltered queries
	pos int    // index in m.classes, maintained by swap-remove

	// vp is the vectorized where-only plan (nil for unfiltered); ctx and
	// sel are its per-class scratch, fails the rows of the current segment
	// whose predicate failed, in row order.
	vp    *vecPlan
	ctx   vctx
	sel   []uint64
	fails []rowErr

	// eq is the column index holding the class when its WHERE is an
	// equality the index serves (nil otherwise), under payload eqKey at
	// position eqPos of its slot's list.
	eq    *eqIndex
	eqKey int64
	eqPos int

	members []*multiEntry // order changes under churn (swap-remove)

	// tables are the key tables the members fold through; byShare holds, per
	// sharing identity, the one an attach may join (an identity has more
	// than one table only while a member that split off has not rejoined).
	tables  []*keyTable
	byShare map[string]*keyTable
}

// multiEntry is one attached query.
type multiEntry struct {
	id    uint64
	text  string
	sink  func(Tuple) error
	run   *Run
	cls   *predClass
	pos   int // index in cls.members (swap-remove)
	armed bool
	tag   any
	// off converts the shared feed position into this run's tuple counter:
	// r.tuples == m.tuples + off. Attach sets it to -m.tuples; restore to
	// ckpt.tuples - m.tuples.
	off int64

	// Admission and attribution.
	estCost    float64
	errs       uint64
	consecErrs int
	nsEWMA     float64

	// Quarantine state. A quarantined entry stays in m.entries (visible to
	// stats, detachable, revivable) but is unlinked from every shared
	// structure; retained is its best-effort quarantine-time checkpoint.
	quarantined bool
	qreason     string
	qerr        error
	qtuples     uint64
	retained    []byte
}

// MultiHandle is the caller's reference to one attached query.
type MultiHandle struct {
	m *MultiRun
	e *multiEntry
}

// multiStmt is a catalog entry: the statement compiled once per distinct
// text, the number of entries linked to it (it leaves the catalog with the
// last), the pieces its predicate class is built from, and the canonical
// form of its group expressions in order (the key list its members share a
// key table on).
type multiStmt struct {
	st       *Statement
	refs     int
	whereKey string
	whereAST expr
	keyList  string
}

// NewMultiRun creates an empty multi-query runtime over one registered
// stream. Options apply to every member. Like a Run, a MultiRun is
// single-producer: Push/PushBatch/Heartbeat and Attach/Detach must not be
// called concurrently.
func NewMultiRun(e *Engine, stream string, opts Options) (*MultiRun, error) {
	schema, ok := e.streams[strings.ToLower(stream)]
	if !ok {
		return nil, fmt.Errorf("gsql: unknown stream %q", stream)
	}
	ep, err := newEpochState(opts.Epoch, schema)
	if err != nil {
		return nil, err
	}
	m := &MultiRun{
		eng:        e,
		schema:     schema,
		opts:       opts,
		stmts:      map[string]*multiStmt{},
		classByKey: map[string]*predClass{},
		entries:    map[uint64]*multiEntry{},
		ep:         ep,
		eq:         make([]eqIndex, len(schema.Cols)),
	}
	for i := range m.eq {
		m.eq[i].col = i
	}
	if opts.Isolate != nil {
		m.iso = *opts.Isolate
	}
	m.mbx = new(batchExec)
	return m, nil
}

// prepare compiles a parsed query as a catalog statement: Engine.Prepare's
// plan with WHERE stripped (the predicate class applies it).
func (m *MultiRun) prepare(text string, ast *queryAST) (*multiStmt, error) {
	st, err := m.eng.compile(text, ast, m.schema, true)
	if err != nil {
		return nil, err
	}
	ss := &multiStmt{st: st, whereAST: ast.where}
	if ast.where != nil {
		ss.whereKey = exprKey(ast.where)
	}
	keys := make([]string, len(ast.group))
	for i, g := range ast.group {
		keys[i] = exprKey(g.e)
	}
	ss.keyList = fmt.Sprintf("%q", keys)
	return ss, nil
}

func (m *MultiRun) parse(text string) (*queryAST, error) {
	ast, err := m.eng.parse(text)
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(ast.from, m.schema.Name) {
		return nil, fmt.Errorf("gsql: query reads stream %q but the multi-run feeds %q", ast.from, m.schema.Name)
	}
	return ast, nil
}

// classFor returns (creating if needed) the predicate class of a canonical
// WHERE key.
func (m *MultiRun) classFor(ss *multiStmt) (*predClass, error) {
	if cls := m.classByKey[ss.whereKey]; cls != nil {
		return cls, nil
	}
	cls := &predClass{key: ss.whereKey, byShare: map[string]*keyTable{}}
	if ss.whereAST != nil {
		var err error
		if cls.vp, err = compileWhere(tupleEnv(m.schema), ss.whereAST); err != nil {
			return nil, err
		}
		if col, key, ok := eqTerm(ss.whereAST, m.schema); ok {
			m.eq[col].add(cls, key)
		}
	}
	cls.pos = len(m.classes)
	m.classByKey[ss.whereKey] = cls
	m.classes = append(m.classes, cls)
	return cls, nil
}

// Per-tuple cost model weights, in rough nanoseconds on a contemporary
// core. Absolute accuracy does not matter — admission compares candidates
// against a budget in the same unit, and the measured EWMA refines the
// picture once the query runs. costClassRead is the flat charge for a WHERE
// whose predicate class already runs, or that the equality index will
// serve: the member reads its bitmap.
const (
	costLit       = 1.0
	costCol       = 2.0
	costUnary     = 2.0
	costBinary    = 4.0
	costCall      = 24.0
	costAggStep   = 16.0
	costClassRead = 3.0
)

// exprCost estimates the per-tuple cost of evaluating e.
func exprCost(e expr) float64 {
	switch n := e.(type) {
	case *colRef:
		return costCol
	case *unExpr:
		return costUnary + exprCost(n.e)
	case *binExpr:
		return costBinary + exprCost(n.l) + exprCost(n.r)
	case *callExpr:
		c := costCall
		for _, a := range n.args {
			c += exprCost(a)
		}
		return c
	case *aggExpr:
		c := costAggStep
		for _, a := range n.args {
			c += exprCost(a)
		}
		return c
	default: // literals
		return costLit
	}
}

// aggStepCost sums the per-tuple stepping cost of every aggregate call in
// an output expression (the rest of the output expression runs per emitted
// row, not per tuple, and is excluded).
func aggStepCost(e expr) float64 {
	switch n := e.(type) {
	case *aggExpr:
		return exprCost(n)
	case *unExpr:
		return aggStepCost(n.e)
	case *binExpr:
		return aggStepCost(n.l) + aggStepCost(n.r)
	case *callExpr:
		var c float64
		for _, a := range n.args {
			c += aggStepCost(a)
		}
		return c
	default:
		return 0
	}
}

// privateCost estimates the per-tuple cost a candidate adds to the shared
// pass: its WHERE (costClassRead when an identical predicate class already
// runs or the equality index will serve it), group expressions, and
// aggregate stepping. It depends only on the candidate's text and on
// whether its class exists. This is the estimate admission control checks
// and the seed of the query's measured ns/tuple EWMA.
func (m *MultiRun) privateCost(q *queryAST) float64 {
	var c float64
	if q.where != nil {
		_, _, eq := eqTerm(q.where, m.schema)
		if eq || m.classByKey[exprKey(q.where)] != nil {
			c += costClassRead
		} else {
			c += exprCost(q.where)
		}
	}
	for _, g := range q.group {
		c += exprCost(g.e)
	}
	for _, s := range q.sel {
		c += aggStepCost(s.e)
	}
	if q.having != nil {
		c += aggStepCost(q.having)
	}
	return c
}

// admit runs admission control for a candidate, returning its private-cost
// estimate. The check happens before any catalog state is touched, so a
// rejected attach perturbs nothing.
func (m *MultiRun) admit(text string, q *queryAST) (float64, error) {
	est := m.privateCost(q)
	if m.iso.AdmitBudget > 0 && m.admitUsed+est > m.iso.AdmitBudget {
		return est, &AdmissionError{Query: text, EstCost: est, Used: m.admitUsed, Budget: m.iso.AdmitBudget}
	}
	return est, nil
}

// Attach registers a query against the shared feed and starts its run.
// shards must be 0: every member is a serial Run, and anything else is
// refused with *ShardedUnsupportedError before the catalog is touched.
// Identical query texts share one compiled plan; every attach owns its own
// run, sink, cursor and checkpoints. Queries attached mid-stream see only
// tuples pushed after their attach, exactly as a standalone run started at
// that point would. Under admission control an attach that would blow the
// catalog budget fails with *AdmissionError.
//
// The sink contract is Statement.Start's: a row handed to sink is the sink's
// to keep, never written or reused by the runtime afterwards.
func (m *MultiRun) Attach(text string, shards int, sink func(Tuple) error) (*MultiHandle, error) {
	return m.add(text, shards, nil, sink)
}

// Restore attaches a query resuming from a checkpoint taken by a handle of
// this or a previous incarnation (same text, same schema — the checkpoint
// fingerprint is verified). The shared epoch supervisor adopts the restored
// epoch stamp, so a restored runtime continues the landmark sequence.
func (m *MultiRun) Restore(text string, shards int, ckpt []byte, sink func(Tuple) error) (*MultiHandle, error) {
	return m.add(text, shards, ckpt, sink)
}

func (m *MultiRun) add(text string, shards int, ckpt []byte, sink func(Tuple) error) (*MultiHandle, error) {
	if shards != 0 {
		return nil, &ShardedUnsupportedError{Query: text, Shards: shards}
	}
	ast, err := m.parse(text)
	if err != nil {
		return nil, err
	}
	est, err := m.admit(text, ast)
	if err != nil {
		return nil, err
	}
	e := &multiEntry{id: m.nextID, text: text, sink: sink}
	if err := m.link(e, ast, ckpt); err != nil {
		return nil, err
	}
	e.estCost, e.nsEWMA = est, est
	m.admitUsed += est
	m.nextID++
	m.entries[e.id] = e
	e.armed = true
	return &MultiHandle{m: m, e: e}, nil
}

// link compiles (or re-acquires) the entry's plan and joins it to the
// shared feed: catalog reference, predicate-class membership, run creation,
// landmark adoption. On error everything it acquired is released. Attach,
// Restore and Revive all come through here, and its cost is O(query) — no
// catalog-wide recompilation happens on any membership change.
func (m *MultiRun) link(e *multiEntry, ast *queryAST, ckpt []byte) error {
	ss := m.stmts[e.text]
	if ss == nil {
		var err error
		if ss, err = m.prepare(e.text, ast); err != nil {
			return err
		}
		m.stmts[e.text] = ss
	}
	ss.refs++
	cls, err := m.classFor(ss)
	if err != nil {
		m.releaseRef(e.text)
		return err
	}
	var r *Run
	if ckpt != nil {
		r, err = ss.st.Restore(ckpt, e.sink, m.opts)
		if err != nil {
			if len(cls.members) == 0 {
				m.dropClass(cls) // classFor made it for this attach alone
			}
			m.releaseRef(e.text)
			return err
		}
		e.off = int64(r.tuples) - int64(m.tuples)
		// A restored epoch stamp re-anchors the shared supervisor: the
		// whole runtime must continue the checkpointed landmark
		// sequence, and later attaches must be born onto it.
		if r.tab.landmarkSet {
			m.curL, m.landmarkSet = r.tab.curL, true
			if m.ep != nil && r.ep != nil {
				m.ep.epoch, m.ep.model = r.ep.epoch, r.ep.model
			}
		}
	} else {
		r = newRun(ss.st.p, e.sink, m.opts)
		e.off = -int64(m.tuples)
		// Born after a rollover: adopt the current landmark so this
		// run's groups live in the same frame as everyone else's.
		if m.landmarkSet {
			r.tab.curL, r.tab.landmarkSet = m.curL, true
			if m.ep != nil && r.ep != nil {
				r.ep.epoch, r.ep.model = m.ep.epoch, m.ep.model
			}
		}
	}
	r.ent, e.run, e.cls = e, r, cls
	e.pos = len(cls.members)
	cls.members = append(cls.members, e)
	m.placeTable(cls, r.tab, ss.keyList)
	return nil
}

// placeTable joins a new member's table t, grouping by keyList, to the
// class: into the table of the same sharing identity when the two are
// identical (one map lookup), else as a table of its own.
func (m *MultiRun) placeTable(cls *predClass, t *keyTable, keyList string) {
	t.share = fmt.Sprintf("%t %d %s", t.twoLevel, t.lowMax, keyList)
	if p := cls.byShare[t.share]; p != nil && p.joinable(t) {
		p.absorb(t)
		return
	}
	m.listTable(cls, t)
}

// listTable adds table t to the class.
func (m *MultiRun) listTable(cls *predClass, t *keyTable) {
	m.tableIDs++
	t.id, t.pos = m.tableIDs, len(cls.tables)
	cls.tables = append(cls.tables, t)
	if cls.byShare[t.share] == nil {
		cls.byShare[t.share] = t
	}
}

// dropTable removes a memberless table from the class (swap-remove); the
// next table of its sharing identity listed, or met by a heartbeat, takes
// its place in byShare.
func (m *MultiRun) dropTable(cls *predClass, t *keyTable) {
	last := len(cls.tables) - 1
	cls.tables[t.pos] = cls.tables[last]
	cls.tables[t.pos].pos = t.pos
	cls.tables[last] = nil
	cls.tables = cls.tables[:last]
	if cls.byShare[t.share] == t {
		delete(cls.byShare, t.share)
	}
}

// split moves member r off its table onto a copy of the table as it stands,
// to go on alone — in a fold, from row from of the range being folded
// (foldMembers folds the copy there).
func (m *MultiRun) split(r *Run, from int) {
	t := r.tab
	c := t.clone()
	t.remove(r)
	c.p, c.from = r.p, from
	c.add(r)
	m.listTable(r.ent.cls, c)
}

// rejoin meets a catalog table at a bucket close, at row i of the range
// being folded, right after its flush. A peer of the same sharing identity
// parked empty at row i and identical to it takes its members (and folds
// the range on from row i with them); while a peer still has row i to fold,
// the table parks there to wait for it. It reports whether the table stops
// folding.
func (m *MultiRun) rejoin(t *keyTable, i int) bool {
	cls := t.members[0].ent.cls
	wait := false
	for _, p := range cls.tables {
		if p == t || p.share != t.share {
			continue
		}
		if p.parked && p.from == i {
			if p.joinable(t) {
				p.absorb(t)
				m.dropTable(cls, t)
				return true
			}
			continue
		}
		wait = wait || p.from <= i
	}
	if wait {
		t.from, t.parked = i, true
	}
	return wait
}

// releaseRef drops one reference to the statement of text; the last
// reference removes it from the catalog.
func (m *MultiRun) releaseRef(text string) {
	ss := m.stmts[text]
	if ss.refs--; ss.refs == 0 {
		delete(m.stmts, text)
	}
}

// swapRemoveAt removes index i from a membership list in O(1), keeping the
// moved element's stored position current.
func swapRemoveAt(s []*multiEntry, i int) []*multiEntry {
	last := len(s) - 1
	s[i] = s[last]
	s[i].pos = i
	s[last] = nil
	return s[:last]
}

// unlink removes an armed entry from every shared structure: its key table
// (dropping an empty one), class membership (pruning an empty class), the
// admission budget, and the catalog reference (dropping the statement on
// the last one). O(1) in the catalog size via the stored positions. The
// entry itself stays wherever the caller keeps it — Detach drops it,
// quarantine retains it.
func (m *MultiRun) unlink(e *multiEntry) {
	m.admitUsed -= e.estCost
	cls := e.cls
	if t := e.run.tab; t.remove(e.run) {
		m.dropTable(cls, t)
	}
	cls.members = swapRemoveAt(cls.members, e.pos)
	if len(cls.members) == 0 {
		m.dropClass(cls)
	}
	e.cls = nil
	m.releaseRef(e.text)
}

// dropClass prunes a memberless class (swap-remove from m.classes).
func (m *MultiRun) dropClass(cls *predClass) {
	if cls.eq != nil {
		cls.eq.remove(cls)
	}
	delete(m.classByKey, cls.key)
	last := len(m.classes) - 1
	m.classes[cls.pos] = m.classes[last]
	m.classes[cls.pos].pos = cls.pos
	m.classes[last] = nil
	m.classes = m.classes[:last]
}

// quarantine fences an armed entry out of the shared feed: best-effort
// checkpoint, unlink from table, class and catalog, state flip, operator
// callback. Everything else keeps running as if the query were never
// attached; the entry stays in m.entries for stats, Detach and Revive.
func (m *MultiRun) quarantine(e *multiEntry, reason string, cause error) {
	if !e.armed || e.quarantined {
		return
	}
	// The run may be mid-fold corrupt (panic path), so the retained
	// checkpoint is best-effort: a failure leaves it nil and a revive
	// starts fresh.
	func() {
		defer func() { _ = recover() }()
		m.syncTuples(e)
		e.retained, _ = e.run.Checkpoint()
	}()
	e.qtuples = uint64(int64(m.tuples) + e.off)
	e.quarantined, e.qreason, e.qerr = true, reason, cause
	m.unlink(e)
	e.run = nil
	if m.iso.OnQuarantine != nil {
		m.iso.OnQuarantine(QuarantineEvent{
			ID: e.id, Tag: e.tag, Text: e.text, Reason: reason, Err: cause,
			Retained: e.retained, Tuples: e.qtuples,
		})
	}
}

// chargeMember books one failed fold against a member and trips the breaker
// or (for panics and epoch-shift faults, which leave the run's state
// unreliable) quarantines immediately.
func (m *MultiRun) chargeMember(e *multiEntry, cause error, reason string) {
	if e.quarantined {
		return
	}
	e.errs++
	e.consecErrs++
	if reason != "" {
		m.quarantine(e, reason, cause)
		return
	}
	if br := m.iso.BreakerErrors; br > 0 && e.consecErrs >= br {
		m.quarantine(e, QuarantineBreaker, cause)
	}
}

// chargeClass books a class-predicate failure against every member: the
// class predicate is each member's own WHERE clause, so a standalone run of
// any of them would have hit the same error on this tuple.
func (m *MultiRun) chargeClass(cls *predClass, cause error, reason string) {
	eachIn(cls, func(e *multiEntry) { m.chargeMember(e, cause, reason) })
}

// Push feeds one tuple to every attached query: a one-row PushBatch, as
// Run.Push is. The tuple must match the stream's column types, as
// Batch.Append requires. The only errors are the tuple's own: a non-finite
// value (*NonFiniteValueError, counted as a tuple) or a type mismatch
// (uncounted). Member errors are charged to their query and Push keeps
// feeding everyone else.
func (m *MultiRun) Push(t Tuple) error {
	b, err := loadOne(m.schema, &m.one, t, &m.tuples)
	if err != nil {
		return err
	}
	_, err = m.PushBatch(b)
	return err
}

// eachIn calls f for every member of cls. f may quarantine the member it is
// handed (swap-removing it), so the cursor re-checks before it advances.
func eachIn(cls *predClass, f func(*multiEntry)) {
	for i := 0; i < len(cls.members); {
		e := cls.members[i]
		f(e)
		if i < len(cls.members) && cls.members[i] == e {
			i++
		}
	}
}

// shiftAll applies a landmark roll across the runtime: every member shifts
// at the same point of the tuple sequence. A member whose shift fails is
// quarantined — a half-shifted run can never rejoin the shared landmark
// frame — and the roll continues for the rest.
func (m *MultiRun) shiftAll(newL float64) {
	m.eachTable(func(t *keyTable) {
		t.each(m, func(r *Run) error { return r.ShiftLandmark(newL) })
		for _, f := range t.failed {
			m.chargeMember(f.r.ent, f.err, QuarantineEpoch)
		}
	})
	m.ep.advanced(newL)
	m.curL, m.landmarkSet = newL, true
}

// Heartbeat advances the epoch supervisor and every key table's temporal
// bucket without carrying data — one observation fanned to all queries. A
// member's failure is charged to it; the returned error is always nil.
// Every table then stands at the same point of the feed, so a table
// identical to the one of its sharing identity an attach would join merges
// into it.
func (m *MultiRun) Heartbeat(ts Value) error {
	if m.ep != nil {
		if newL, roll := m.ep.observe(ts.AsFloat()); roll {
			m.shiftAll(newL)
		}
	}
	m.eachTable(func(t *keyTable) {
		if t.heartbeat(m, ts) != nil {
			for _, f := range t.failed {
				m.chargeMember(f.r.ent, f.err, "")
			}
		}
	})
	for _, cls := range m.classes {
		for ti := 0; ti < len(cls.tables); ti++ {
			t := cls.tables[ti]
			if p := cls.byShare[t.share]; p == nil {
				cls.byShare[t.share] = t
			} else if p != t && p.joinable(t) {
				p.absorb(t)
				m.dropTable(cls, t)
				ti--
			}
		}
	}
	return nil
}

// eachTable calls f for every key table listed when it starts — a member
// that splits off during f (a failed flush) goes on from a table f does not
// see — fencing every member of a table on which f panics outside the
// members' own code (which keyTable.each contains): in the shared group
// kernels or bucket, which each member would have met on its own.
func (m *MultiRun) eachTable(f func(*keyTable)) {
	ts := m.tabs[:0]
	for _, cls := range m.classes {
		ts = append(ts, cls.tables...)
	}
	for _, t := range ts {
		if len(t.members) > 0 {
			m.tableSafe(t, func() { f(t) })
		}
	}
	clear(ts)
	m.tabs = ts[:0]
}

// tableSafe runs f on table t, fencing all its members if f panics.
func (m *MultiRun) tableSafe(t *keyTable, f func()) {
	defer func() {
		if p := recover(); p != nil {
			for len(t.members) > 0 {
				e := t.members[0].ent
				m.chargeMember(e, fmt.Errorf("gsql: panic in query %d: %v", e.id, p), QuarantinePanic)
			}
		}
	}()
	f()
}

// PushBatch folds a columnar batch into every attached query: one finite
// scan, one epoch segmentation, and per segment one selection bitmap per
// predicate class shared by its members. A class with no surviving rows in
// a segment skips its members entirely. The batch's selection bitmap is
// consumed as working state. rejected counts non-finite rows, as
// Run.PushBatch does. A member's failed row (its WHERE, expressions,
// aggregate steps or sink) is charged to that query alone, which goes on
// with its next row; the error returned is the batch's own (a schema the
// stream cannot take).
func (m *MultiRun) PushBatch(b *Batch) (rejected int, err error) {
	if b == nil || b.Len() == 0 {
		return 0, nil
	}
	if !b.compatibleWith(m.schema) {
		return 0, fmt.Errorf("gsql: batch schema %s is incompatible with stream %s",
			b.schema.Name, m.schema.Name)
	}
	m.valid = growBits(m.valid, b.n)
	b.scanFinite(m.valid)
	rejected = b.n - popRange(m.valid, b.n)

	lo, skipObserve := 0, false
	for lo < b.n {
		hi, newL, roll := b.n, 0.0, false
		if m.ep != nil {
			m.mbx.valid = m.valid
			hi, newL, roll = m.mbx.scanEpoch(m.ep, b, lo, skipObserve)
		}
		m.processSegmentAll(b, lo, hi)
		m.tuples += uint64(hi - lo)
		if roll {
			m.shiftAll(newL)
		}
		lo, skipObserve = hi, roll
	}
	return rejected, nil
}

// processSegmentAll folds rows [lo,hi) — a fixed-landmark segment — into
// every member: one index pass per indexed column, then one class
// selection per class the index does not serve. Quarantine swap-removes
// from the very lists being walked, so every loop re-checks its cursor.
func (m *MultiRun) processSegmentAll(b *Batch, lo, hi int) {
	if lo >= hi {
		return
	}
	m.segLo = lo
	for i := range m.eq {
		if x := &m.eq[i]; x.classes > 0 {
			x.selectRows(b, m.valid, lo, hi)
		}
	}
	for ci := 0; ci < len(m.classes); {
		cls := m.classes[ci]
		if err := m.classSelectSafe(cls, b, lo, hi); err != nil {
			m.chargeClass(cls, err, QuarantinePanic)
		} else {
			m.foldMembers(cls, b, lo, hi)
		}
		if ci < len(m.classes) && m.classes[ci] == cls {
			ci++
		}
	}
}

// foldMembers folds the class's selected rows of [lo,hi) into every key
// table, each row whose predicate failed charged to every member at its
// place in the sequence; a range with neither skips the members outright. A
// table split off mid-range, or parked at a bucket close (rejoin), folds on
// from its row, until every table has folded the whole range.
func (m *MultiRun) foldMembers(cls *predClass, b *Batch, lo, hi int) {
	if len(cls.fails) == 0 && popRange(cls.sel, hi) == popRange(cls.sel, lo) {
		return
	}
	for _, t := range cls.tables {
		t.from, t.parked = lo, false
	}
	for more := true; more; {
		more = false
		for ti := 0; ti < len(cls.tables); {
			t := cls.tables[ti]
			if t.from < hi {
				m.foldTable(t, b, hi, cls)
				more = true
			}
			if ti < len(cls.tables) && cls.tables[ti] == t {
				ti++
			}
		}
	}
}

// classSelectSafe is classSelect with panic containment: the error it
// returns is a panic's, which fences the whole class.
func (m *MultiRun) classSelectSafe(cls *predClass, b *Batch, lo, hi int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("gsql: panic in class predicate: %v", p)
		}
	}()
	m.classSelect(cls, b, lo, hi)
	return nil
}

// foldTable folds class cls's selected and failed rows of [t.from,hi) into
// a key table, timing it into its members' ns/tuple EWMA when at least
// sampleRows rows have folded since the table's last timed fold (each
// member is charged its share), and fences the members whose table exceeds
// the cardinality cap. Tables fold one at a time, with the runtime's batch
// scratch.
func (m *MultiRun) foldTable(t *keyTable, b *Batch, hi int, cls *predClass) {
	lo, sel := t.from, cls.sel
	t.from, t.parked = hi, false
	var t0 time.Time
	if t.untimed <= 0 {
		t.untimed, t0 = sampleRows, time.Now()
	}
	m.tableSafe(t, func() { t.fold(m.mbx, b, lo, hi, sel, cls.fails, m) }) // nil: every error is charged
	n := popRange(sel, t.from) - popRange(sel, lo)
	t.untimed -= n
	if len(t.members) == 0 {
		return
	}
	if !t0.IsZero() && n > 0 {
		ns := float64(time.Since(t0).Nanoseconds()) / float64(n*len(t.members))
		for _, r := range t.members {
			r.ent.nsEWMA += ewmaAlpha * (ns - r.ent.nsEWMA)
		}
	}
	if mg := m.iso.MaxGroups; mg > 0 && t.liveGroups() > mg {
		for len(t.members) > 0 {
			e := t.members[0].ent
			m.quarantine(e, QuarantineCardinality, fmt.Errorf("gsql: query %d exceeded the %d live-group cap", e.id, mg))
		}
	}
}

// charge books a failed fold of row i (of a heartbeat, with no row, when
// i < 0) against member r and reports whether r is still linked. The feed
// position stands through row i of the segment being folded meanwhile, so
// a fence the charge causes records the row it tripped on.
func (m *MultiRun) charge(r *Run, i int, err error) bool {
	at := m.tuples
	if i >= 0 {
		m.tuples += uint64(i - m.segLo + 1)
	}
	m.chargeMember(r.ent, err, "")
	m.tuples = at
	return !r.ent.quarantined
}

// classSelect fills cls.sel with finite ∧ class-WHERE over [lo,hi). The
// rows whose predicate failed leave the selection and go to cls.fails, in
// row order. A class the equality index serves was selected by its
// column's pass.
func (m *MultiRun) classSelect(cls *predClass, b *Batch, lo, hi int) {
	if cls.eq != nil {
		return
	}
	cls.sel = growBits(cls.sel, b.n)
	maskRange(cls.sel, m.valid, lo, hi)
	cls.fails = cls.fails[:0]
	if cls.vp == nil {
		return
	}
	cls.ctx.reset(b, cls.vp.nslots)
	cls.vp.where.run(&cls.ctx, cls.sel)
	wb := cls.ctx.bits(cls.vp.where)
	for w := range cls.sel {
		cls.sel[w] &= wb[w]
	}
	cls.fails = cls.ctx.take(cls.fails, cls.sel)
}

// MultiStats is the runtime's sharing scoreboard, exported by the service
// as catalog gauges.
type MultiStats struct {
	// Queries is the attached-query count (quarantined included);
	// DistinctTexts the deduped compiled-statement count; Classes the
	// predicate-class count; IndexedClasses how many of them the equality
	// index selects; KeyTables the live key-table count (members of a
	// class that group alike share one); Quarantined the fenced-query
	// count.
	Queries        int
	DistinctTexts  int
	Classes        int
	IndexedClasses int
	KeyTables      int
	Quarantined    int
	// DistinctExprs always reads 0: no expression is shared below the
	// predicate class. It stays for callers that report it.
	DistinctExprs int
	Tuples        uint64
	// AdmitUsed is the summed private-cost estimate of the admitted
	// catalog, in estimated ns/tuple.
	AdmitUsed float64
}

// SharedHitRatio always reads 0: no runtime memo serves a read. It stays
// for callers that report the ratio.
func (MultiStats) SharedHitRatio() float64 { return 0 }

// MultiStats snapshots the runtime's sharing counters.
func (m *MultiRun) MultiStats() MultiStats {
	quar, tables := 0, 0
	for _, e := range m.entries {
		if e.quarantined {
			quar++
		}
	}
	indexed := 0
	for _, cls := range m.classes {
		tables += len(cls.tables)
		if cls.eq != nil {
			indexed++
		}
	}
	return MultiStats{
		Queries:        len(m.entries),
		DistinctTexts:  len(m.stmts),
		Classes:        len(m.classes),
		IndexedClasses: indexed,
		KeyTables:      tables,
		Quarantined:    quar,
		Tuples:         m.tuples,
		AdmitUsed:      m.admitUsed,
	}
}

// QueryStats is one attached query's attribution snapshot: feed position,
// error and quarantine state, the admission estimate and the measured
// ns/tuple EWMA it seeds.
type QueryStats struct {
	ID   uint64
	Text string
	// Tuples is the query's own tuple counter (frozen at quarantine time
	// for fenced queries); Groups its live group population; KeyTable the
	// id of the key table it folds through (0 while fenced) — queries with
	// the same id share one.
	Tuples   uint64
	Groups   int
	KeyTable uint64
	// Errors counts failed rows; ConsecErrors the current breaker streak.
	Errors       uint64
	ConsecErrors int
	// Quarantined/Reason/Cause describe the fence, when applied.
	Quarantined bool
	Reason      string
	Cause       string
	// EstCostNs is the admission-time private-cost estimate; NsPerTuple the
	// measured private-fold EWMA it seeds (equal until the first sample).
	EstCostNs  float64
	NsPerTuple float64
}

func (m *MultiRun) queryStats(e *multiEntry) QueryStats {
	qs := QueryStats{
		ID: e.id, Text: e.text,
		Errors: e.errs, ConsecErrors: e.consecErrs,
		Quarantined: e.quarantined, Reason: e.qreason,
		EstCostNs: e.estCost, NsPerTuple: e.nsEWMA,
	}
	if e.qerr != nil {
		qs.Cause = e.qerr.Error()
	}
	if e.quarantined {
		qs.Tuples = e.qtuples
	} else {
		qs.Tuples = uint64(int64(m.tuples) + e.off)
		qs.Groups, qs.KeyTable = e.run.tab.liveGroups(), e.run.tab.id
	}
	return qs
}

// TopExpensive returns the n most expensive queries of a snapshot by
// measured ns/tuple (ties by id), without mutating the input; none for
// n <= 0.
func TopExpensive(stats []QueryStats, n int) []QueryStats {
	if n <= 0 {
		return nil
	}
	out := make([]QueryStats, len(stats))
	copy(out, stats)
	sort.Slice(out, func(i, j int) bool {
		if out[i].NsPerTuple != out[j].NsPerTuple {
			return out[i].NsPerTuple > out[j].NsPerTuple
		}
		return out[i].ID < out[j].ID
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// CloseAll flushes every attached query's final bucket, in id order.
// Quarantined queries are skipped — a fenced run must not emit. The first
// error is returned; later members still flush.
func (m *MultiRun) CloseAll() error {
	var first error
	for id := uint64(0); id < m.nextID; id++ {
		e := m.entries[id]
		if e == nil || !e.armed || e.quarantined {
			continue
		}
		if err := (&MultiHandle{m: m, e: e}).Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// syncTuples materializes the entry's derived tuple counter into its run.
func (m *MultiRun) syncTuples(e *multiEntry) {
	e.run.tuples = uint64(int64(m.tuples) + e.off)
}

// SetTag attaches an opaque caller tag to the query; it rides along on
// QuarantineEvent so callers can map events back to their own bookkeeping.
func (h *MultiHandle) SetTag(tag any) { h.e.tag = tag }

// QueryStats snapshots this query's attribution counters.
func (h *MultiHandle) QueryStats() QueryStats { return h.m.queryStats(h.e) }

// Checkpoint serializes this query's aggregation state, restorable by
// MultiRun.Restore or the standalone Statement.Restore — the formats are
// identical. A quarantined query returns its retained quarantine-time
// checkpoint.
func (h *MultiHandle) Checkpoint() ([]byte, error) {
	if h.e.quarantined {
		if h.e.retained == nil {
			return nil, fmt.Errorf("gsql: query %d is quarantined with no retained checkpoint", h.e.id)
		}
		return append([]byte(nil), h.e.retained...), nil
	}
	h.m.syncTuples(h.e)
	return h.e.run.Checkpoint()
}

// Stats reports this query's tuples-seen and eviction counters, as
// Run.Stats does. A quarantined query reports its frozen quarantine-time
// position.
func (h *MultiHandle) Stats() (tuples, evictions uint64) {
	if h.e.quarantined {
		return h.e.qtuples, 0
	}
	h.m.syncTuples(h.e)
	return h.e.run.Stats()
}

// Fault fences the query for a fault outside its fold — the caller could not
// take rows it emitted — as a panic inside it would be: one error charged,
// then quarantine with QuarantineSink and cause (a retained checkpoint,
// OnQuarantine). Call it on the producer goroutine, between pushes. A
// detached or fenced query is left as it is.
func (h *MultiHandle) Fault(cause error) { h.m.chargeMember(h.e, cause, QuarantineSink) }

// Close flushes the query's final (still open) bucket. The query stays
// attached; Detach removes it from the feed. Closing a quarantined query is
// a no-op — a fenced run must not emit. A query sharing a key table closes
// a copy of its own, which it folds through from then on.
func (h *MultiHandle) Close() error {
	if h.e.quarantined {
		return nil
	}
	if r := h.e.run; len(r.tab.members) > 1 {
		h.m.split(r, 0)
	}
	return h.e.run.Close()
}

// Detach removes the query from the shared feed without flushing (call
// Close first for final results), releasing its compiled-plan reference,
// its key table and its predicate-class membership (an empty table, class
// or statement is dropped), so the catalog stays sized to the live queries
// under churn. O(query): no other member is touched. Detaching a quarantined
// query just forgets it (quarantine already unlinked everything).
func (h *MultiHandle) Detach() {
	m, e := h.m, h.e
	if !e.armed {
		return
	}
	e.armed = false
	delete(m.entries, e.id)
	if e.quarantined {
		return
	}
	m.unlink(e)
}

// Revive re-admits a quarantined query: the plan is recompiled (or
// re-acquired from the catalog), the retained quarantine-time checkpoint
// restored, class membership re-established, and the breaker reset. If the
// retained checkpoint no longer restores (a panic can fence a run
// mid-write), the query restarts fresh at the current feed
// position. Admission control applies as on Attach.
func (h *MultiHandle) Revive() error {
	m, e := h.m, h.e
	if !e.armed {
		return fmt.Errorf("gsql: query %d is detached", e.id)
	}
	if !e.quarantined {
		return fmt.Errorf("gsql: query %d is not quarantined", e.id)
	}
	ast, err := m.parse(e.text)
	if err != nil {
		return err
	}
	est, err := m.admit(e.text, ast)
	if err != nil {
		return err
	}
	if err := m.link(e, ast, e.retained); err != nil {
		if e.retained == nil {
			return err
		}
		if err2 := m.link(e, ast, nil); err2 != nil {
			return err
		}
	}
	e.quarantined, e.qreason, e.qerr, e.retained = false, "", nil, nil
	e.consecErrs = 0
	e.estCost = est
	m.admitUsed += est
	if e.nsEWMA == 0 {
		e.nsEWMA = est
	}
	return nil
}
