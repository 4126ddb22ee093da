// Package distrib runs forward-decay aggregation across distributed sites,
// the deployment mode of §VI-B and the concluding remarks of the paper:
// because static weights are fixed at arrival and all summaries merge, any
// number of independent sites can aggregate their own partitions of a
// stream and a coordinator can combine their partial states into the
// summary of the union — with no coordination during ingestion and no
// sensitivity to arrival order or skew between sites.
//
// The cluster is elastic. The key space folds onto a fixed set of
// partitions, a consistent-hash ring (virtual nodes, deterministic seed)
// assigns partitions to sites, and every site keeps its aggregates per
// partition — so when the roster changes, only the partitions whose owner
// moved are handed off: the source quiesces, cuts a versioned, integrity-
// hashed state slice per partition, and the destination installs it.
// Because forward-decay state is mergeable, a handoff is bit-identical to
// never having moved the partition at all. The landmark is fixed at
// Config.Model for the cluster's life.
//
// Ring-routed observations are appended to a segmented, checksummed
// write-ahead log before delivery, with per-partition sequence numbers. A
// crashed site therefore loses nothing acknowledged: its replacement
// rebuilds from the last checkpoint slice plus a replay of the records
// after the slice's watermark.
//
// Each site runs in its own goroutine, owns its aggregates exclusively, and
// ships *serialized* partial state to the coordinator on demand, modelling
// the network boundary: what crosses between goroutines is the same byte
// encoding that would cross between machines. The coordinator is
// fault-tolerant in the same spirit: per-site snapshot requests carry a
// timeout and a bounded retry budget, and up to Config.MaxFailedSites
// non-responsive or failing sites may be skipped, with the merged Summary
// reporting exactly which sites are missing.
package distrib

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"forwarddecay/agg"
	"forwarddecay/decay"
	"forwarddecay/internal/core"
	"forwarddecay/internal/faultinject"
	"forwarddecay/metrics"
)

// Observation is one keyed, timestamped, valued stream event.
type Observation struct {
	// Key identifies the item (e.g. a destination); it also selects the
	// partition, and through the ring the site, for keyed routing.
	Key uint64
	// Value is the observation's numeric value (e.g. bytes); it feeds the
	// decayed sum and, clamped to the quantile domain, the quantile digest.
	Value float64
	// Time is the event timestamp.
	Time float64
}

// BadObservationError reports an observation rejected at the ingest
// boundary: a NaN or ±Inf value or timestamp would poison the decayed
// state of every later query on the site.
type BadObservationError struct {
	// Field names the offending Observation field ("Value" or "Time").
	Field string
	// X is the offending value.
	X float64
}

func (e *BadObservationError) Error() string {
	return fmt.Sprintf("distrib: non-finite observation %s %v rejected", e.Field, e.X)
}

// LandmarkError reports a state slice stamped with a landmark other than
// the cluster's. Every slice is cut in-process under Config.Model, whose
// landmark never moves, so this is a corrupt slice.
type LandmarkError struct {
	// Part is the slice's partition.
	Part uint32
	// Slice and Cluster are the slice's and the cluster's landmarks.
	Slice, Cluster float64
}

func (e *LandmarkError) Error() string {
	return fmt.Sprintf("distrib: partition %d slice is in the landmark-%v frame, cluster is at %v", e.Part, e.Slice, e.Cluster)
}

// RouteError reports an observation that could not be routed: an explicit
// site target that is not in the live roster, or a keyed route to a downed
// site with no write-ahead log to absorb it. (Explicit out-of-range targets
// used to wrap silently around the roster; they are a hard, typed error
// now.)
type RouteError struct {
	// Site is the site id the route resolved to (or was aimed at).
	Site int
	// Reason says why the route failed.
	Reason string
}

func (e *RouteError) Error() string {
	return fmt.Sprintf("distrib: cannot route to site %d: %s", e.Site, e.Reason)
}

// Config describes a cluster.
type Config struct {
	// Sites is the number of initial ingestion sites (goroutines), ≥ 1.
	// Sites join and leave the live cluster through AddSite / RemoveSite.
	Sites int
	// Model is the shared forward decay model; all sites must agree on the
	// function and landmark for their summaries to merge. The landmark stays
	// fixed for the cluster's life.
	Model decay.Forward
	// HHK enables per-partition heavy-hitter summaries with HHK counters
	// when positive.
	HHK int
	// QuantileU enables per-partition quantile digests over [0, QuantileU)
	// with error QuantileEps when positive.
	QuantileU   uint64
	QuantileEps float64
	// Buffer is each site's input channel capacity (default 1024).
	Buffer int

	// Partitions is the number of key-space partitions — the granularity of
	// consistent-hash assignment, handoff, and log replay (default 32).
	Partitions int
	// VNodes is the number of virtual ring points per site (default 64).
	VNodes int
	// RingSeed makes ring placement deterministic across processes; any
	// agreed-upon value works (default 0).
	RingSeed uint64

	// WALDir, when non-empty, enables the segmented write-ahead log: every
	// ring-routed observation is logged before delivery, and crashed sites
	// rebuild from checkpoint + replay instead of losing their window.
	WALDir string
	// WALSegmentBytes rotates log segments at this size (default 1 MiB).
	WALSegmentBytes int

	// Metrics, when set, mirrors the cluster's health counters into the
	// registry under "distrib.*" names (see Health).
	Metrics *metrics.CounterSet

	// SnapshotTimeout bounds how long Snapshot waits for any single site's
	// reply (per attempt) before treating the site as failed; default 2s.
	// The same budget bounds handoff cuts and installs.
	SnapshotTimeout time.Duration
	// SnapshotRetries is how many additional attempts a failed site gets
	// before Snapshot gives up on it; default 1.
	SnapshotRetries int
	// MaxFailedSites is the number of sites Snapshot tolerates losing: up to
	// this many unresponsive or erroring sites are skipped, and the Summary
	// lists them in MissingSites. Default 0: any site failure fails the
	// snapshot.
	MaxFailedSites int
}

// Summary is a merged, queryable snapshot of the whole cluster.
type Summary struct {
	// Sum holds the decayed count/sum/mean/variance of all observations.
	Sum *agg.Sum
	// HH holds the merged heavy hitters (nil unless enabled).
	HH *agg.HeavyHitters
	// Quantiles holds the merged quantile digest (nil unless enabled).
	Quantiles *agg.Quantiles
	// MissingSites lists the live sites absent from the merge (each failed
	// its snapshot within the coordinator's timeout and retry budget), plus
	// any downed site that could not be reconstructed from the log. Empty on
	// a complete snapshot.
	MissingSites []int
}

// route is one delivery to a site: the observation, its partition, and its
// write-ahead-log sequence (0 for unlogged, explicitly-targeted routes).
type route struct {
	ob   Observation
	part uint32
	seq  uint64
}

// siteAnswer is a site's serialized per-partition state.
type siteAnswer struct {
	parts map[uint32][]byte // partition → encoded state slice
	err   error
}

// handoffReq asks a site to quiesce and cut the named partitions (nil =
// everything it holds) out of its state.
type handoffReq struct {
	parts []uint32
	reply chan siteAnswer
}

// installReq ships serialized partition slices into a running site, which
// decodes and merges-or-installs.
type installReq struct {
	slices map[uint32][]byte
	reply  chan error
}

// site is one ingestion worker.
type site struct {
	id   int
	in   chan route
	snap chan chan siteAnswer
	cut  chan *handoffReq
	inst chan *installReq
	kill chan struct{}
	done chan struct{}
}

// ckptEntry is one partition's latest checkpointed slice and its log
// watermark.
type ckptEntry struct {
	blob []byte
	seq  uint64
}

// Cluster is a running set of sites plus the coordinator-side routing,
// handoff and merge logic. ObserveKeyed routes events through the ring;
// Snapshot produces a merged Summary. Close must be called to release the
// workers.
type Cluster struct {
	cfg    Config
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	// opMu serializes coordinator operations (Snapshot, Checkpoint,
	// membership changes) and guards ckpt: a snapshot can never observe the
	// cluster mid-handoff.
	opMu sync.Mutex
	ckpt map[uint32]ckptEntry

	// routeMu guards the ring, the roster, and the write-ahead log, and —
	// critically — is held across append+deliver, so per-partition log
	// order and site-apply order always agree.
	routeMu sync.Mutex
	ring    *Ring
	roster  map[int]*site
	downSet map[int]bool
	nextID  int
	wal     *Log

	health health
}

// New starts a cluster. It returns an error for invalid configurations.
func New(cfg Config) (*Cluster, error) {
	if cfg.Sites < 1 {
		return nil, fmt.Errorf("distrib: need at least one site")
	}
	if cfg.Model.Func == nil {
		return nil, fmt.Errorf("distrib: config needs a decay model")
	}
	if cfg.QuantileU > 0 && !(cfg.QuantileEps > 0 && cfg.QuantileEps < 1) {
		return nil, fmt.Errorf("distrib: quantiles enabled but QuantileEps invalid")
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 32
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.SnapshotTimeout <= 0 {
		cfg.SnapshotTimeout = 2 * time.Second
	}
	if cfg.SnapshotRetries < 0 {
		cfg.SnapshotRetries = 0
	} else if cfg.SnapshotRetries == 0 {
		cfg.SnapshotRetries = 1
	}
	if cfg.MaxFailedSites < 0 {
		cfg.MaxFailedSites = 0
	}
	c := &Cluster{
		cfg:     cfg,
		ckpt:    map[uint32]ckptEntry{},
		ring:    NewRing(cfg.RingSeed, cfg.VNodes),
		roster:  map[int]*site{},
		downSet: map[int]bool{},
	}
	c.health.set = cfg.Metrics
	if cfg.WALDir != "" {
		wal, err := OpenLog(cfg.WALDir, cfg.WALSegmentBytes)
		if err != nil {
			return nil, err
		}
		c.wal = wal
	}
	for i := 0; i < cfg.Sites; i++ {
		id := c.nextID
		c.nextID++
		c.ring.Add(id)
		c.roster[id] = c.startSite(id, nil)
	}
	return c, nil
}

// startSite spawns a site goroutine with initial per-partition state.
func (c *Cluster) startSite(id int, init map[uint32]*partState) *site {
	s := &site{
		id:   id,
		in:   make(chan route, c.cfg.Buffer),
		snap: make(chan chan siteAnswer),
		cut:  make(chan *handoffReq),
		inst: make(chan *installReq),
		kill: make(chan struct{}),
		done: make(chan struct{}),
	}
	if init == nil {
		init = map[uint32]*partState{}
	}
	c.wg.Add(1)
	go c.runSite(s, init)
	return s
}

// runSite is the per-site event loop: it owns its per-partition aggregates
// exclusively, so no locking is needed on the hot path.
func (c *Cluster) runSite(s *site, parts map[uint32]*partState) {
	defer c.wg.Done()
	defer close(s.done)

	apply := func(rt route) {
		ps := parts[rt.part]
		if ps == nil {
			ps = c.newPartState()
			parts[rt.part] = ps
		}
		ps.observe(rt.ob, rt.seq)
	}
	// drain consumes everything already queued, so snapshots and handoffs
	// observe every delivered observation. It reports false
	// when the input channel closed.
	drain := func() bool {
		for {
			select {
			case rt, ok := <-s.in:
				if !ok {
					return false
				}
				apply(rt)
			default:
				return true
			}
		}
	}
	marshalParts := func(sel []uint32, remove bool) siteAnswer {
		var ids []uint32
		if sel == nil {
			for p := range parts {
				ids = append(ids, p)
			}
		} else {
			ids = sel
		}
		out := map[uint32][]byte{}
		for _, p := range ids {
			ps := parts[p]
			if ps == nil {
				continue
			}
			blob, err := encodeSlice(p, ps)
			if err != nil {
				return siteAnswer{err: err}
			}
			out[p] = blob
		}
		if remove {
			for p := range out {
				delete(parts, p)
			}
		}
		return siteAnswer{parts: out}
	}
	answer := func() siteAnswer {
		// Fault-injection point for the failed-site experiments: an armed
		// error or delay here models a site that crashes or stalls while
		// serving a snapshot.
		if err := faultinject.Hit("distrib.site.snapshot"); err != nil {
			return siteAnswer{err: err}
		}
		return marshalParts(nil, false)
	}
	// zombie services the site's channels with errors after a failed
	// handoff cut left its state indeterminate: it keeps consuming (so no
	// sender ever wedges on a full queue) but contributes nothing, until the
	// coordinator reaps it.
	zombie := func(siteErr error) {
		for {
			select {
			case _, ok := <-s.in:
				if !ok {
					return
				}
			case reply := <-s.snap:
				reply <- siteAnswer{err: siteErr}
			case req := <-s.cut:
				req.reply <- siteAnswer{err: siteErr}
			case req := <-s.inst:
				req.reply <- siteErr
			case <-s.kill:
				return
			}
		}
	}

	for {
		select {
		case rt, ok := <-s.in:
			if !ok {
				return
			}
			apply(rt)
		case <-s.kill:
			// Simulated process death: discard all in-memory state. Whatever
			// was acknowledged lives in the write-ahead log.
			return
		case reply := <-s.snap:
			if !drain() {
				reply <- answer()
				return
			}
			reply <- answer()
		case req := <-s.cut:
			// Shard handoff, source leg: quiesce, cut the requested slices
			// out of the local state, ship them serialized.
			if !drain() {
				req.reply <- siteAnswer{err: fmt.Errorf("distrib: site closed during handoff")}
				return
			}
			if err := faultinject.Hit("distrib.site.handoff"); err != nil {
				req.reply <- siteAnswer{err: err}
				zombie(fmt.Errorf("distrib: site crashed during handoff: %w", err))
				return
			}
			req.reply <- marshalParts(req.parts, true)
		case req := <-s.inst:
			// Shard handoff, destination leg: decode, merge-or-install.
			if !drain() {
				req.reply <- fmt.Errorf("distrib: site closed during install")
				return
			}
			req.reply <- installSlices(parts, req.slices, c.cfg.Model.Landmark)
		}
	}
}

// installSlices decodes serialized partition slices into a site's state,
// merging into any state already present (exact for all the summaries
// here). A slice stamped with a landmark other than the cluster's is
// refused with a *LandmarkError.
func installSlices(parts map[uint32]*partState, slices map[uint32][]byte, landmark float64) error {
	for p, blob := range slices {
		hdr, ps, err := decodeSlice(blob)
		if err != nil {
			return fmt.Errorf("distrib: installing partition %d: %w", p, err)
		}
		if hdr.part != p {
			return fmt.Errorf("distrib: installing partition %d: slice is for partition %d", p, hdr.part)
		}
		if err := hdr.frameErr(landmark); err != nil {
			return err
		}
		if cur := parts[p]; cur != nil {
			if err := cur.merge(ps); err != nil {
				return fmt.Errorf("distrib: merging partition %d: %w", p, err)
			}
		} else {
			parts[p] = ps
		}
	}
	return nil
}

// partitionOf folds a key onto the partition space.
func (c *Cluster) partitionOf(key uint64) uint32 {
	return uint32(core.Mix64(key) % uint64(c.cfg.Partitions))
}

// checkOb validates an observation at the ingest boundary.
func checkOb(ob Observation) error {
	if math.IsNaN(ob.Value) || math.IsInf(ob.Value, 0) {
		return &BadObservationError{Field: "Value", X: ob.Value}
	}
	if math.IsNaN(ob.Time) || math.IsInf(ob.Time, 0) {
		return &BadObservationError{Field: "Time", X: ob.Time}
	}
	return nil
}

// ObserveKeyed routes an observation to the site owning its key's
// partition, appending it to the write-ahead log (when configured) before
// delivery — so a nil return means the observation is durable against any
// single site crash. If the owning site is down, the observation is
// accepted into the log alone and re-applied when the site rejoins; with no
// log configured, a downed owner yields a *RouteError instead of silent
// loss. Observations carrying a NaN or ±Inf value or timestamp are rejected
// with a *BadObservationError.
func (c *Cluster) ObserveKeyed(ob Observation) error {
	if err := checkOb(ob); err != nil {
		return err
	}
	part := c.partitionOf(ob.Key)
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	owner, ok := c.ring.Owner(part)
	if !ok {
		return &RouteError{Site: -1, Reason: "ring has no members"}
	}
	seq := uint64(0)
	if c.wal != nil {
		var err error
		if seq, err = c.wal.Append(part, ob.Key, ob.Value, ob.Time); err != nil {
			return err
		}
		c.health.bump(&c.health.logged, cntLoggedRecords, 1)
	}
	s := c.roster[owner]
	if s == nil {
		if c.downSet[owner] && c.wal != nil {
			// Logged and acknowledged; the rejoining site replays it.
			return nil
		}
		return &RouteError{Site: owner, Reason: "site is down and no write-ahead log is configured"}
	}
	s.in <- route{ob: ob, part: part, seq: seq}
	return nil
}

// Observe delivers an observation to an explicitly targeted live site,
// bypassing the ring. The target must name a live roster site: anything
// else — an unknown id, a downed site — returns a *RouteError (indices no
// longer wrap). Explicitly targeted observations bypass the write-ahead log
// too, so they carry no crash-durability guarantee; keyed routing is the
// production path.
func (c *Cluster) Observe(siteID int, ob Observation) error {
	if err := checkOb(ob); err != nil {
		return err
	}
	part := c.partitionOf(ob.Key)
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	s := c.roster[siteID]
	if s == nil {
		reason := "no such site"
		if c.downSet[siteID] {
			reason = "site is down"
		}
		return &RouteError{Site: siteID, Reason: reason}
	}
	s.in <- route{ob: ob, part: part}
	return nil
}

// Sites returns the number of live sites.
func (c *Cluster) Sites() int {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	return len(c.roster)
}

// LiveSites returns the live site ids, ascending.
func (c *Cluster) LiveSites() []int {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	return sortedIDs(c.roster)
}

// DownSites returns the ids of crashed or quarantined sites that have not
// rejoined, ascending.
func (c *Cluster) DownSites() []int {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	var out []int
	for id := range c.downSet {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func sortedIDs(m map[int]*site) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// snapshotSite requests one site's serialized state, bounding each attempt
// by the configured timeout and retrying failed attempts up to the retry
// budget. A timed-out attempt leaves the request outstanding; the buffered
// reply channel lets the site's late answer complete without blocking it.
func (c *Cluster) snapshotSite(s *site) siteAnswer {
	var last siteAnswer
	for attempt := 0; attempt <= c.cfg.SnapshotRetries; attempt++ {
		if attempt > 0 {
			c.health.bump(&c.health.snapshotRetries, cntSnapshotRetries, 1)
		}
		reply := make(chan siteAnswer, 1)
		timer := time.NewTimer(c.cfg.SnapshotTimeout)
		select {
		case s.snap <- reply:
		case <-s.done:
			timer.Stop()
			return siteAnswer{err: fmt.Errorf("distrib: site %d already closed", s.id)}
		case <-timer.C:
			last = siteAnswer{err: fmt.Errorf("distrib: site %d snapshot request timed out after %v", s.id, c.cfg.SnapshotTimeout)}
			continue
		}
		select {
		case st := <-reply:
			timer.Stop()
			if st.err == nil {
				return st
			}
			last = siteAnswer{err: fmt.Errorf("distrib: site %d snapshot: %w", s.id, st.err)}
		case <-timer.C:
			last = siteAnswer{err: fmt.Errorf("distrib: site %d snapshot reply timed out after %v", s.id, c.cfg.SnapshotTimeout)}
		}
	}
	return last
}

// newSummary allocates the coordinator-side merge target.
func (c *Cluster) newSummary() *Summary {
	ps := c.newPartState()
	return &Summary{Sum: ps.sum, HH: ps.hh, Quantiles: ps.qd}
}

// decodeAnswer decodes every slice of a site's answer before any of it is
// merged, validating each slice's frame against the cluster's — so a failed
// (skippable) site never leaves a partial contribution behind, and state
// from a different landmark is refused with a *LandmarkError, not blended
// in.
func (c *Cluster) decodeAnswer(siteID int, ans siteAnswer) (map[uint32]*partState, error) {
	out := make(map[uint32]*partState, len(ans.parts))
	for p, blob := range ans.parts {
		hdr, ps, err := decodeSlice(blob)
		if err != nil {
			return nil, fmt.Errorf("distrib: decoding site %d partition %d: %w", siteID, p, err)
		}
		if hdr.part != p {
			return nil, fmt.Errorf("distrib: site %d shipped partition %d labelled %d", siteID, p, hdr.part)
		}
		if err := hdr.frameErr(c.cfg.Model.Landmark); err != nil {
			return nil, fmt.Errorf("distrib: site %d: %w", siteID, err)
		}
		out[p] = ps
	}
	return out, nil
}

// mergeState folds one partition's decoded state into the summary.
func mergeState(out *Summary, siteID int, part uint32, ps *partState) error {
	if err := out.Sum.Merge(ps.sum); err != nil {
		return fmt.Errorf("distrib: merging site %d partition %d sum: %w", siteID, part, err)
	}
	if out.HH != nil && ps.hh != nil {
		if err := out.HH.Merge(ps.hh); err != nil {
			return fmt.Errorf("distrib: merging site %d partition %d heavy hitters: %w", siteID, part, err)
		}
	}
	if out.Quantiles != nil && ps.qd != nil {
		if err := out.Quantiles.Merge(ps.qd); err != nil {
			return fmt.Errorf("distrib: merging site %d partition %d quantiles: %w", siteID, part, err)
		}
	}
	return nil
}

// Snapshot asks every live site for its serialized partial state, rebuilds
// any downed site's partitions from checkpoint + log replay, and merges the
// decoded partials into a fresh Summary — exactly the distributed pattern
// of §VI-B, made churn-proof. It is safe to call concurrently with
// ObserveKeyed/Observe; each site snapshots at an event boundary.
//
// A live site that fails to answer within the timeout and retry budget, or
// whose state fails to decode, is skipped when no more than
// Config.MaxFailedSites sites have failed — the Summary then covers the
// surviving partitions and MissingSites names the absent sites. Beyond that
// tolerance, Snapshot returns the first failing site's error. Merging
// happens in ascending (partition, site) order, so two clusters holding
// identical partition states produce bit-identical summaries regardless of
// roster history.
func (c *Cluster) Snapshot() (*Summary, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()

	type decoded struct {
		id    int
		parts map[uint32]*partState
	}
	var all []decoded
	var missing []int
	fail := func(id int, err error) error {
		if len(missing) >= c.cfg.MaxFailedSites {
			return err
		}
		missing = append(missing, id)
		c.health.bump(&c.health.failedSites, cntFailedSites, 1)
		return nil
	}

	c.routeMu.Lock()
	liveIDs := sortedIDs(c.roster)
	liveSites := make([]*site, 0, len(liveIDs))
	for _, id := range liveIDs {
		liveSites = append(liveSites, c.roster[id])
	}
	downIDs := make([]int, 0, len(c.downSet))
	for id := range c.downSet {
		downIDs = append(downIDs, id)
	}
	sort.Ints(downIDs)
	c.routeMu.Unlock()

	for i, id := range liveIDs {
		ans := c.snapshotSite(liveSites[i])
		if ans.err == nil {
			parts, err := c.decodeAnswer(id, ans)
			if err != nil {
				ans.err = err
			} else {
				all = append(all, decoded{id: id, parts: parts})
				continue
			}
		}
		if err := fail(id, ans.err); err != nil {
			return nil, err
		}
	}
	// Downed sites: their acknowledged observations are all in the log, so
	// reconstruct their owned partitions coordinator-side instead of
	// reporting a hole. Without a log there is nothing to rebuild from.
	for _, id := range downIDs {
		if c.wal == nil {
			if err := fail(id, fmt.Errorf("distrib: site %d is down", id)); err != nil {
				return nil, err
			}
			continue
		}
		c.routeMu.Lock()
		parts := c.ownedBy(id)
		states, err := c.rebuildParts(parts)
		c.routeMu.Unlock()
		if err != nil {
			if err := fail(id, fmt.Errorf("distrib: rebuilding down site %d: %w", id, err)); err != nil {
				return nil, err
			}
			continue
		}
		all = append(all, decoded{id: id, parts: states})
	}

	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := c.newSummary()
	for p := 0; p < c.cfg.Partitions; p++ {
		for _, d := range all {
			if ps, ok := d.parts[uint32(p)]; ok {
				if err := mergeState(out, d.id, uint32(p), ps); err != nil {
					return nil, err
				}
			}
		}
	}
	sort.Ints(missing)
	out.MissingSites = missing
	return out, nil
}

// ownedBy lists the partitions the ring assigns to a site (routeMu held).
func (c *Cluster) ownedBy(id int) []uint32 {
	var out []uint32
	for p := 0; p < c.cfg.Partitions; p++ {
		if owner, ok := c.ring.Owner(uint32(p)); ok && owner == id {
			out = append(out, uint32(p))
		}
	}
	return out
}

// rebuildParts reconstructs partitions from the last checkpoint slice plus
// a write-ahead-log replay past each slice's watermark. A checkpoint slice
// stamped with another landmark is refused with a *LandmarkError. Caller
// holds opMu and routeMu.
func (c *Cluster) rebuildParts(parts []uint32) (map[uint32]*partState, error) {
	states := make(map[uint32]*partState, len(parts))
	after := make(map[uint32]uint64, len(parts))
	sel := make(map[uint32]bool, len(parts))
	for _, p := range parts {
		sel[p] = true
		if e, ok := c.ckpt[p]; ok {
			hdr, ps, err := decodeSlice(e.blob)
			if err != nil {
				return nil, fmt.Errorf("distrib: checkpoint slice for partition %d: %w", p, err)
			}
			if err := hdr.frameErr(c.cfg.Model.Landmark); err != nil {
				return nil, fmt.Errorf("distrib: checkpoint slice: %w", err)
			}
			states[p] = ps
			after[p] = hdr.lastSeq
		} else {
			states[p] = c.newPartState()
		}
	}
	if c.wal != nil && len(parts) > 0 {
		n, err := c.wal.Replay(sel, after, func(r Record) error {
			states[r.Part].observe(Observation{Key: r.Key, Value: r.Val, Time: r.Time}, r.Seq)
			return nil
		})
		c.health.bump(&c.health.replayed, cntReplayedRecords, uint64(n))
		if err != nil {
			return nil, err
		}
	}
	return states, nil
}

// Checkpoint cuts a fresh per-partition state slice from every live site
// and retires write-ahead-log segments wholly covered by the new
// watermarks. Sites that fail to answer keep their previous checkpoint
// entries, so their log records are retained until they recover. Calling it
// periodically bounds both replay time after a crash and log disk usage.
func (c *Cluster) Checkpoint() error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.routeMu.Lock()
	ids := sortedIDs(c.roster)
	sites := make([]*site, 0, len(ids))
	for _, id := range ids {
		sites = append(sites, c.roster[id])
	}
	c.routeMu.Unlock()

	var firstErr error
	for i, id := range ids {
		ans := c.snapshotSite(sites[i])
		if ans.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("distrib: checkpoint of site %d: %w", id, ans.err)
			}
			continue
		}
		for p, blob := range ans.parts {
			hdr, _, err := decodeSlice(blob)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("distrib: checkpoint slice from site %d partition %d: %w", id, p, err)
				}
				continue
			}
			c.ckpt[p] = ckptEntry{blob: blob, seq: hdr.lastSeq}
		}
	}
	if c.wal != nil {
		wm := make(map[uint32]uint64, len(c.ckpt))
		for p, e := range c.ckpt {
			wm[p] = e.seq
		}
		c.routeMu.Lock()
		n, err := c.wal.Trim(wm)
		c.routeMu.Unlock()
		c.health.bump(&c.health.trimmed, cntTrimmedSegments, uint64(n))
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// cutParts asks a live site to quiesce and hand over partitions (nil = all
// it holds), bounded by the snapshot timeout.
func (c *Cluster) cutParts(s *site, parts []uint32) siteAnswer {
	req := &handoffReq{parts: parts, reply: make(chan siteAnswer, 1)}
	timer := time.NewTimer(c.cfg.SnapshotTimeout)
	defer timer.Stop()
	select {
	case s.cut <- req:
	case <-s.done:
		return siteAnswer{err: fmt.Errorf("distrib: site %d already closed", s.id)}
	case <-timer.C:
		return siteAnswer{err: fmt.Errorf("distrib: site %d handoff request timed out after %v", s.id, c.cfg.SnapshotTimeout)}
	}
	select {
	case ans := <-req.reply:
		return ans
	case <-timer.C:
		return siteAnswer{err: fmt.Errorf("distrib: site %d handoff reply timed out after %v", s.id, c.cfg.SnapshotTimeout)}
	}
}

// installAt ships serialized slices into a live site, bounded by the
// snapshot timeout.
func (c *Cluster) installAt(s *site, slices map[uint32][]byte) error {
	if len(slices) == 0 {
		return nil
	}
	req := &installReq{slices: slices, reply: make(chan error, 1)}
	timer := time.NewTimer(c.cfg.SnapshotTimeout)
	defer timer.Stop()
	select {
	case s.inst <- req:
	case <-s.done:
		return fmt.Errorf("distrib: site %d already closed", s.id)
	case <-timer.C:
		return fmt.Errorf("distrib: site %d install request timed out after %v", s.id, c.cfg.SnapshotTimeout)
	}
	select {
	case err := <-req.reply:
		return err
	case <-timer.C:
		return fmt.Errorf("distrib: site %d install reply timed out after %v", s.id, c.cfg.SnapshotTimeout)
	}
}

// crashSiteRouted tears a live site down as a crash: its goroutine exits,
// its in-memory state is discarded, and it is marked down for later
// recovery. Caller holds routeMu.
func (c *Cluster) crashSiteRouted(id int) {
	s := c.roster[id]
	if s == nil {
		return
	}
	close(s.kill)
	<-s.done
	delete(c.roster, id)
	c.downSet[id] = true
	c.health.bump(&c.health.crashes, cntSiteCrashes, 1)
}

// CrashSite simulates the process death of a live site: the worker is torn
// down and every in-memory aggregate it held is discarded. With a
// write-ahead log configured nothing acknowledged is lost — the site's
// partitions rebuild from checkpoint + replay on RecoverSite, and keyed
// observations routed to it meanwhile are absorbed by the log. It is the
// chaos-testing and operational-drill entry point.
func (c *Cluster) CrashSite(id int) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if c.roster[id] == nil {
		return &RouteError{Site: id, Reason: "no such live site"}
	}
	c.crashSiteRouted(id)
	return nil
}

// RecoverSite rebuilds a downed site from the last checkpoint plus a
// write-ahead-log replay and returns it to the live roster — the
// rejoin-from-log leg of crash recovery.
func (c *Cluster) RecoverSite(id int) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	if !c.downSet[id] {
		return &RouteError{Site: id, Reason: "site is not down"}
	}
	if c.wal == nil && len(c.ckpt) == 0 {
		// Nothing to rebuild from; the site rejoins empty (its window is
		// lost, which is the best a log-less cluster can do).
		c.roster[id] = c.startSite(id, nil)
		delete(c.downSet, id)
		c.health.bump(&c.health.rejoins, cntSiteRejoins, 1)
		return nil
	}
	states, err := c.rebuildParts(c.ownedBy(id))
	if err != nil {
		return err
	}
	c.roster[id] = c.startSite(id, states)
	delete(c.downSet, id)
	c.health.bump(&c.health.rejoins, cntSiteRejoins, 1)
	return nil
}

// AddSite grows the live roster by one site and hands it exactly the
// partitions the ring reassigns to it (about P/N of them): each current
// owner quiesces, cuts checkpoint-v2 state slices, and the new site
// installs them — bit-identical to a cluster that always had the new
// roster. A source site that crashes mid-handoff is quarantined and the
// moved partitions are rebuilt from checkpoint + log replay instead; the
// returned site id is valid either way, alongside the error describing the
// casualty.
func (c *Cluster) AddSite() (int, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.routeMu.Lock()
	defer c.routeMu.Unlock()

	id := c.nextID
	c.nextID++
	newRing := c.ring.Clone()
	newRing.Add(id)
	moved := movedPartitions(c.ring, newRing, c.cfg.Partitions)

	bySrc := map[int][]uint32{}
	for _, p := range moved {
		owner, ok := c.ring.Owner(p)
		if !ok {
			owner = -1
		}
		bySrc[owner] = append(bySrc[owner], p)
	}
	srcs := make([]int, 0, len(bySrc))
	for src := range bySrc {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)

	states := map[uint32]*partState{}
	var firstErr error
	for _, src := range srcs {
		parts := bySrc[src]
		s := c.roster[src]
		if s != nil {
			ans := c.cutParts(s, parts)
			if ans.err == nil {
				if err := installSlices(states, ans.parts, c.cfg.Model.Landmark); err == nil {
					continue
				} else if firstErr == nil {
					firstErr = err
				}
			} else if firstErr == nil {
				firstErr = fmt.Errorf("distrib: handoff from site %d failed (site quarantined): %w", src, ans.err)
			}
			// The source failed mid-handoff: treat it as crashed and fall
			// back to the log.
			c.crashSiteRouted(src)
		} else if firstErr == nil && c.wal == nil {
			firstErr = fmt.Errorf("distrib: source site %d is down and no write-ahead log is configured; partitions rebuilt from last checkpoint only", src)
		}
		rebuilt, err := c.rebuildParts(parts)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for p, ps := range rebuilt {
			states[p] = ps
		}
	}

	c.roster[id] = c.startSite(id, states)
	c.ring = newRing
	c.health.bump(&c.health.handoffs, cntHandoffs, 1)
	c.health.bump(&c.health.handoffParts, cntHandoffPartitions, uint64(len(moved)))
	return id, firstErr
}

// RemoveSite retires a site from the roster, handing every partition it
// holds to the ring's new owners (live removal quiesces and cuts exact
// slices; removing a downed site rebuilds its partitions from checkpoint +
// log replay). The last live site cannot be removed.
func (c *Cluster) RemoveSite(id int) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.routeMu.Lock()
	defer c.routeMu.Unlock()

	s := c.roster[id]
	wasDown := c.downSet[id]
	if s == nil && !wasDown {
		return &RouteError{Site: id, Reason: "no such site"}
	}
	if s != nil && len(c.roster) == 1 {
		return fmt.Errorf("distrib: cannot remove the last live site")
	}
	ownedBefore := c.ownedBy(id)
	newRing := c.ring.Clone()
	newRing.Remove(id)
	if newRing.Size() == 0 {
		return fmt.Errorf("distrib: cannot remove the last ring member")
	}

	var slices map[uint32][]byte
	var firstErr error
	if s != nil {
		ans := c.cutParts(s, nil)
		if ans.err != nil {
			firstErr = fmt.Errorf("distrib: handoff from site %d failed (site quarantined): %w", id, ans.err)
			c.crashSiteRouted(id)
			wasDown = true
		} else {
			slices = ans.parts
			close(s.in)
			<-s.done
			delete(c.roster, id)
		}
	}
	if wasDown {
		// Rebuild what the departed site owned from the log; anything not
		// reconstructible is already reflected in firstErr.
		states, err := c.rebuildParts(ownedBefore)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			slices = map[uint32][]byte{}
			for p, ps := range states {
				blob, err := encodeSlice(p, ps)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				slices[p] = blob
			}
		}
		delete(c.downSet, id)
	}

	// Ship every cut or rebuilt partition to its new owner.
	byDst := map[int]map[uint32][]byte{}
	for p, blob := range slices {
		dst, ok := newRing.Owner(p)
		if !ok {
			continue
		}
		if byDst[dst] == nil {
			byDst[dst] = map[uint32][]byte{}
		}
		byDst[dst][p] = blob
	}
	dsts := make([]int, 0, len(byDst))
	for dst := range byDst {
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	moved := 0
	for _, dst := range dsts {
		moved += len(byDst[dst])
		ds := c.roster[dst]
		if ds == nil {
			// New owner is itself down; its rebuild path will pick the
			// partitions up from checkpoint + log. Re-checkpoint the slices
			// so nothing depends on the departed site.
			for p, blob := range byDst[dst] {
				hdr, _, err := decodeSlice(blob)
				if err == nil {
					c.ckpt[p] = ckptEntry{blob: blob, seq: hdr.lastSeq}
				} else if firstErr == nil {
					firstErr = err
				}
			}
			continue
		}
		if err := c.installAt(ds, byDst[dst]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.ring = newRing
	c.health.bump(&c.health.handoffs, cntHandoffs, 1)
	c.health.bump(&c.health.handoffParts, cntHandoffPartitions, uint64(moved))
	return firstErr
}

// Close drains and stops all sites and closes the write-ahead log.
// ObserveKeyed/Observe must not be called after (or concurrently with)
// Close. Close is idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.routeMu.Lock()
	for _, s := range c.roster {
		close(s.in)
	}
	c.routeMu.Unlock()
	c.wg.Wait()
	if c.wal != nil {
		c.wal.Close()
	}
}
