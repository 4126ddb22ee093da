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

	// Metrics, when set, is the registry that holds the cluster's health
	// counters, under "distrib.*" names (see Health).
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

// siteReq is the one request a site serves. With install set, the site
// decodes those slices and merges-or-installs them. Otherwise it encodes
// the partitions named by parts (nil = everything it holds): a copy for a
// snapshot or checkpoint, or, with take, a cut that removes them from its
// state for a handoff.
type siteReq struct {
	parts   []uint32
	take    bool
	install map[uint32][]byte
	reply   chan siteAnswer
}

// siteAnswer is a site's serialized per-partition state.
type siteAnswer struct {
	parts map[uint32][]byte // partition → encoded state slice
	err   error
}

// site is one ingestion worker.
type site struct {
	id   int
	in   chan route
	req  chan siteReq
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
		health:  newHealth(cfg.Metrics),
	}
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
		req:  make(chan siteReq),
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
	// drain consumes everything already queued, so every request observes
	// every delivered observation. It reports false when the input channel
	// closed.
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
	serve := func(req siteReq) siteAnswer {
		if req.install != nil {
			return siteAnswer{err: installSlices(parts, req.install, c.cfg.Model.Landmark)}
		}
		// Fault-injection points for the failed-site experiments: an armed
		// error or delay models a site that crashes or stalls while serving
		// a snapshot, or while cutting a handoff.
		point := "distrib.site.snapshot"
		if req.take {
			point = "distrib.site.handoff"
		}
		if err := faultinject.Hit(point); err != nil {
			return siteAnswer{err: err}
		}
		ids := req.parts
		if ids == nil {
			for p := range parts {
				ids = append(ids, p)
			}
		}
		out := make(map[uint32][]byte, len(ids))
		for _, p := range ids {
			if ps := parts[p]; ps != nil {
				blob, err := encodeSlice(p, ps)
				if err != nil {
					return siteAnswer{err: err}
				}
				out[p] = blob
			}
		}
		if req.take {
			for p := range out {
				delete(parts, p)
			}
		}
		return siteAnswer{parts: out}
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
		case req := <-s.req:
			open := drain()
			ans := serve(req)
			req.reply <- ans
			if !open {
				return
			}
			if req.take && ans.err != nil {
				c.zombie(s, fmt.Errorf("distrib: site crashed during handoff: %w", ans.err))
				return
			}
		}
	}
}

// zombie services a site's channels with errors after a failed handoff cut
// left its state indeterminate: it keeps consuming (so no sender ever
// wedges on a full queue) but contributes nothing, until the coordinator
// reaps it.
func (c *Cluster) zombie(s *site, err error) {
	for {
		select {
		case _, ok := <-s.in:
			if !ok {
				return
			}
		case req := <-s.req:
			req.reply <- siteAnswer{err: err}
		case <-s.kill:
			return
		}
	}
}

// ask sends a request to a site and waits for its answer. Each attempt is
// bounded by the snapshot timeout, and a failed attempt is retried until
// attempts are spent. A timed-out attempt leaves the request outstanding;
// the buffered reply channel lets the site's late answer complete without
// blocking it.
func (c *Cluster) ask(s *site, req siteReq, attempts int) siteAnswer {
	var last siteAnswer
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.health.snapshotRetries.Add(1)
		}
		req.reply = make(chan siteAnswer, 1)
		timer := time.NewTimer(c.cfg.SnapshotTimeout)
		select {
		case s.req <- req:
		case <-s.done:
			timer.Stop()
			return siteAnswer{err: fmt.Errorf("distrib: site %d already closed", s.id)}
		case <-timer.C:
			last.err = fmt.Errorf("distrib: site %d request timed out after %v", s.id, c.cfg.SnapshotTimeout)
			continue
		}
		select {
		case ans := <-req.reply:
			timer.Stop()
			if ans.err == nil {
				return ans
			}
			last.err = fmt.Errorf("distrib: site %d: %w", s.id, ans.err)
		case <-timer.C:
			last.err = fmt.Errorf("distrib: site %d reply timed out after %v", s.id, c.cfg.SnapshotTimeout)
		}
	}
	return last
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
		c.health.logged.Add(1)
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
	return sortedIDs(c.downSet)
}

func sortedIDs[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// eachLive asks every live site, in ascending id order, for a copy of all
// it holds within the snapshot retry budget, and hands each answer to fn.
// An error from fn stops the loop and is returned.
func (c *Cluster) eachLive(fn func(id int, ans siteAnswer) error) error {
	c.routeMu.Lock()
	ids := sortedIDs(c.roster)
	sites := make([]*site, len(ids))
	for i, id := range ids {
		sites[i] = c.roster[id]
	}
	c.routeMu.Unlock()
	for i, id := range ids {
		if err := fn(id, c.ask(sites[i], siteReq{}, 1+c.cfg.SnapshotRetries)); err != nil {
			return err
		}
	}
	return nil
}

// decodeAnswer decodes every slice of a site's answer before any of it is
// merged, validating each slice's frame against the cluster's — so a failed
// (skippable) site never leaves a partial contribution behind, and state
// from a different landmark is refused with a *LandmarkError, not blended
// in.
func (c *Cluster) decodeAnswer(siteID int, ans siteAnswer) (map[uint32]*partState, error) {
	out := make(map[uint32]*partState, len(ans.parts))
	if err := installSlices(out, ans.parts, c.cfg.Model.Landmark); err != nil {
		return nil, fmt.Errorf("distrib: site %d: %w", siteID, err)
	}
	return out, nil
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
		c.health.failedSites.Add(1)
		return nil
	}

	err := c.eachLive(func(id int, ans siteAnswer) error {
		if ans.err != nil {
			return fail(id, ans.err)
		}
		parts, err := c.decodeAnswer(id, ans)
		if err != nil {
			return fail(id, err)
		}
		all = append(all, decoded{id: id, parts: parts})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Downed sites: their acknowledged observations are all in the log, so
	// reconstruct their owned partitions coordinator-side instead of
	// reporting a hole. Without a log there is nothing to rebuild from.
	for _, id := range c.DownSites() {
		if c.wal == nil {
			if err := fail(id, fmt.Errorf("distrib: site %d is down", id)); err != nil {
				return nil, err
			}
			continue
		}
		c.routeMu.Lock()
		states, err := c.rebuildParts(c.ownedBy(id))
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
	acc := c.newPartState()
	for p := 0; p < c.cfg.Partitions; p++ {
		for _, d := range all {
			if ps, ok := d.parts[uint32(p)]; ok {
				if err := acc.merge(ps); err != nil {
					return nil, fmt.Errorf("distrib: merging site %d partition %d: %w", d.id, p, err)
				}
			}
		}
	}
	sort.Ints(missing)
	return &Summary{Sum: acc.sum, HH: acc.hh, Quantiles: acc.qd, MissingSites: missing}, nil
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
	blobs := map[uint32][]byte{}
	for _, p := range parts {
		if e, ok := c.ckpt[p]; ok {
			blobs[p] = e.blob
		} else {
			states[p] = c.newPartState()
		}
	}
	if err := installSlices(states, blobs, c.cfg.Model.Landmark); err != nil {
		return nil, fmt.Errorf("distrib: checkpoint: %w", err)
	}
	if c.wal != nil && len(parts) > 0 {
		sel := make(map[uint32]bool, len(parts))
		after := make(map[uint32]uint64, len(parts))
		for p, ps := range states {
			sel[p], after[p] = true, ps.lastSeq
		}
		n, err := c.wal.Replay(sel, after, func(r Record) error {
			states[r.Part].observe(Observation{Key: r.Key, Value: r.Val, Time: r.Time}, r.Seq)
			return nil
		})
		c.health.replayed.Add(uint64(n))
		if err != nil {
			return nil, err
		}
	}
	return states, nil
}

// park records a slice as its partition's checkpoint entry. Caller holds
// opMu.
func (c *Cluster) park(p uint32, blob []byte) error {
	hdr, _, err := decodeSlice(blob)
	if err != nil {
		return fmt.Errorf("distrib: partition %d slice: %w", p, err)
	}
	c.ckpt[p] = ckptEntry{blob: blob, seq: hdr.lastSeq}
	return nil
}

// Checkpoint cuts a fresh per-partition state slice from every live site
// and retires write-ahead-log segments wholly covered by the new
// watermarks. Sites that fail to answer keep their previous checkpoint
// entries, so their log records are retained until they recover. Calling it
// periodically bounds both replay time after a crash and log disk usage.
func (c *Cluster) Checkpoint() error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("distrib: checkpoint: %w", err)
		}
	}
	c.eachLive(func(id int, ans siteAnswer) error {
		if ans.err != nil {
			note(ans.err)
		}
		for p, blob := range ans.parts {
			if err := c.park(p, blob); err != nil {
				note(err)
			}
		}
		return nil
	})
	if c.wal != nil {
		wm := make(map[uint32]uint64, len(c.ckpt))
		for p, e := range c.ckpt {
			wm[p] = e.seq
		}
		c.routeMu.Lock()
		n, err := c.wal.Trim(wm)
		c.routeMu.Unlock()
		c.health.trimmed.Add(uint64(n))
		if err != nil {
			note(err)
		}
	}
	return firstErr
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
	c.health.crashes.Add(1)
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
	var states map[uint32]*partState
	// With neither a log nor a checkpoint there is nothing to rebuild from:
	// the site rejoins empty (its window is lost, which is the best a
	// log-less cluster can do).
	if c.wal != nil || len(c.ckpt) > 0 {
		var err error
		if states, err = c.rebuildParts(c.ownedBy(id)); err != nil {
			return err
		}
	}
	c.roster[id] = c.startSite(id, states)
	delete(c.downSet, id)
	c.health.rejoins.Add(1)
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
	next := c.ring.Clone()
	next.Add(id)
	c.roster[id] = c.startSite(id, nil)
	return id, c.rebalance(next, -1)
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
	live := c.roster[id] != nil
	if !live && !c.downSet[id] {
		return &RouteError{Site: id, Reason: "no such site"}
	}
	if live && len(c.roster) == 1 {
		return fmt.Errorf("distrib: cannot remove the last live site")
	}
	next := c.ring.Clone()
	next.Remove(id)
	if next.Size() == 0 {
		return fmt.Errorf("distrib: cannot remove the last ring member")
	}
	return c.rebalance(next, id)
}

// rebalance moves the cluster onto the ring next; leaving is the site
// that retires, or -1. Each source cuts the partitions whose owner
// changes, or everything it holds (explicitly routed state too) if it is
// the leaving site, so every partition has at most one source. A source
// whose cut fails is crashed, and a down or crashed source's partitions
// are rebuilt from checkpoint + log replay. Every slice then goes to its
// owner under next: a live owner installs it, and a down owner finds it
// parked in the checkpoint, where its rebuild reads it. Caller holds opMu
// and routeMu.
func (c *Cluster) rebalance(next *Ring, leaving int) error {
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	bySrc := map[int][]uint32{}
	for _, p := range movedPartitions(c.ring, next, c.cfg.Partitions) {
		src, _ := c.ring.Owner(p)
		bySrc[src] = append(bySrc[src], p)
	}
	if _, ok := bySrc[leaving]; !ok && leaving >= 0 {
		bySrc[leaving] = nil // it may hold explicitly routed state only
	}
	slices := map[uint32][]byte{}
	for _, src := range sortedIDs(bySrc) {
		req := siteReq{parts: bySrc[src], take: true}
		if src == leaving {
			req.parts = nil
		}
		if s := c.roster[src]; s != nil {
			ans := c.ask(s, req, 1)
			if ans.err == nil {
				for p, blob := range ans.parts {
					slices[p] = blob
				}
				continue
			}
			note(fmt.Errorf("distrib: handoff from site %d failed (site quarantined): %w", src, ans.err))
			c.crashSiteRouted(src)
		} else if c.wal == nil {
			note(fmt.Errorf("distrib: source site %d is down and no write-ahead log is configured; partitions rebuilt from last checkpoint only", src))
		}
		states, err := c.rebuildParts(bySrc[src])
		if err != nil {
			note(err)
			continue
		}
		for p, ps := range states {
			blob, err := encodeSlice(p, ps)
			if err != nil {
				note(err)
				continue
			}
			slices[p] = blob
		}
	}
	if s := c.roster[leaving]; s != nil {
		close(s.in)
		<-s.done
		delete(c.roster, leaving)
	}
	delete(c.downSet, leaving)
	c.ring = next

	for p := uint32(0); p < uint32(c.cfg.Partitions); p++ {
		blob, ok := slices[p]
		if !ok {
			continue
		}
		var err error
		if dst, _ := next.Owner(p); c.roster[dst] != nil {
			err = c.ask(c.roster[dst], siteReq{install: map[uint32][]byte{p: blob}}, 1).err
		} else {
			err = c.park(p, blob)
		}
		if err != nil {
			note(err)
			continue
		}
		c.health.handoffParts.Add(1)
	}
	c.health.handoffs.Add(1)
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
