package distrib

import (
	"strings"
	"testing"
)

// keysIn returns n keys whose partitions are all in sel.
func keysIn(t *testing.T, c *Cluster, sel map[uint32]bool, n int) []uint64 {
	t.Helper()
	var out []uint64
	for k := uint64(0); len(out) < n && k < 1<<16; k++ {
		if sel[c.partitionOf(k)] {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("found %d keys in partitions %v, want %d", len(out), sel, n)
	}
	return out
}

// observeAt feeds identical explicitly routed observations of keys into
// one site of each cluster, at times lo, lo+1, ...
func observeAt(t *testing.T, site int, keys []uint64, lo int, cls ...*Cluster) {
	t.Helper()
	for i := 0; i < 200; i++ {
		ob := Observation{Key: keys[i%len(keys)], Value: float64(1 + i%5), Time: float64(lo + i)}
		for _, c := range cls {
			if err := c.Observe(site, ob); err != nil {
				t.Fatalf("explicit observation %d: %v", i, err)
			}
		}
	}
}

// TestHandoffParksSliceForDownOwner retires a live site while the new
// owner of some of its partitions is down. Those slices cannot be
// installed anywhere: they are parked in the checkpoint, and the down
// owner's rejoin picks them up. The retiring site also holds explicitly
// routed (unlogged) observations in those partitions, taken after the
// last checkpoint, so neither the log nor the older checkpoint can
// rebuild them: only the parked slice carries them.
func TestHandoffParksSliceForDownOwner(t *testing.T) {
	cfg := elasticCfg(3)
	cfg.WALDir = t.TempDir()
	subject, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer subject.Close()
	oracle, err := New(elasticCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	// Find a live site to retire whose partitions partly pass to another
	// site, which will be down at the time.
	var leaving, down int
	parked := map[uint32]bool{}
	for _, id := range subject.LiveSites() {
		next := subject.ring.Clone()
		next.Remove(id)
		for p := 0; p < cfg.Partitions; p++ {
			if owner, _ := subject.ring.Owner(uint32(p)); owner != id {
				continue
			}
			if dst, _ := next.Owner(uint32(p)); len(parked) == 0 || dst == down {
				leaving, down = id, dst
				parked[uint32(p)] = true
			}
		}
		if len(parked) > 0 {
			break
		}
	}
	if len(parked) == 0 {
		t.Fatal("no retirement moves a partition")
	}

	feedKeyed(t, 0, 1500, subject, oracle)
	if err := subject.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	observeAt(t, leaving, keysIn(t, subject, parked, 3), 1500, subject, oracle)
	feedKeyed(t, 1700, 2500, subject, oracle)
	if err := subject.CrashSite(down); err != nil {
		t.Fatal(err)
	}
	feedKeyed(t, 2500, 3000, subject, oracle)
	if err := subject.RemoveSite(leaving); err != nil {
		t.Fatalf("RemoveSite(%d) with new owner %d down: %v", leaving, down, err)
	}
	feedKeyed(t, 3000, 3500, subject, oracle)
	requireBitIdentical(t, subject, oracle, 3500)

	if err := subject.RecoverSite(down); err != nil {
		t.Fatalf("RecoverSite(%d): %v", down, err)
	}
	feedKeyed(t, 3500, 4000, subject, oracle)
	requireBitIdentical(t, subject, oracle, 4000)
}

// TestHandoffAddSiteDownSourceNoWAL joins a site while the owner of some
// moved partitions is down and no write-ahead log is configured: AddSite
// reports that those partitions came from the last checkpoint only, and
// the new site is live holding exactly that checkpointed state.
func TestHandoffAddSiteDownSourceNoWAL(t *testing.T) {
	cfg := elasticCfg(3)
	cfg.MaxFailedSites = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pick the down site among the owners of partitions the join moves.
	next := c.ring.Clone()
	next.Add(c.nextID)
	down := -1
	fromDown := map[uint32]bool{}
	for _, p := range movedPartitions(c.ring, next, cfg.Partitions) {
		owner, _ := c.ring.Owner(p)
		if down < 0 {
			down = owner
		}
		if owner == down {
			fromDown[p] = true
		}
	}
	if down < 0 {
		t.Fatal("the join moves no partition")
	}
	downOwned := map[uint32]bool{}
	for _, p := range c.ownedBy(down) {
		downOwned[p] = true
	}

	// Count what should survive: everything outside the down site, and
	// the moved partitions' state as of the checkpoint.
	var want uint64
	feed := func(lo, hi int, ckpt bool) {
		for i := lo; i < hi; i++ {
			ob := Observation{Key: uint64(i % 23), Value: float64(1 + i%11), Time: float64(i)}
			p := c.partitionOf(ob.Key)
			if !downOwned[p] || (ckpt && fromDown[p]) {
				want++
			}
			if err := c.ObserveKeyed(ob); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(0, 1000, true)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feed(1000, 2000, false)
	if err := c.CrashSite(down); err != nil {
		t.Fatal(err)
	}

	id, err := c.AddSite()
	if err == nil || !strings.Contains(err.Error(), "no write-ahead log") {
		t.Fatalf("AddSite with source %d down and no log = %v, want the checkpoint-only error", down, err)
	}
	live := false
	for _, s := range c.LiveSites() {
		live = live || s == id
	}
	if !live {
		t.Fatalf("joined site %d is not live: %v", id, c.LiveSites())
	}
	sum, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.MissingSites) != 1 || sum.MissingSites[0] != down {
		t.Fatalf("MissingSites = %v, want [%d]", sum.MissingSites, down)
	}
	if got := sum.Sum.N(); got != want {
		t.Fatalf("N = %d after the join, want %d (live state plus the moved partitions' checkpoint)", got, want)
	}
}

// TestHandoffRemoveSiteMovesExplicitPartitions retires a site that holds
// explicitly routed state in partitions the ring gives to other sites:
// that state must reach the ring owners, not vanish with the site.
func TestHandoffRemoveSiteMovesExplicitPartitions(t *testing.T) {
	c, err := New(elasticCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	leaving := c.LiveSites()[0]
	others := map[uint32]bool{}
	for p := 0; p < c.cfg.Partitions; p++ {
		if owner, _ := c.ring.Owner(uint32(p)); owner != leaving {
			others[uint32(p)] = true
		}
	}

	feedKeyed(t, 0, 1000, c)
	observeAt(t, leaving, keysIn(t, c, others, 5), 1000, c)
	before, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveSite(leaving); err != nil {
		t.Fatal(err)
	}
	after, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Sum.N(), before.Sum.N(); got != want {
		t.Fatalf("N = %d after retiring site %d, want %d", got, leaving, want)
	}
	if got, want := after.Sum.Value(1200), before.Sum.Value(1200); !almostEq(got, want, 1e-12) {
		t.Fatalf("sum %v after retiring site %d, want %v", got, leaving, want)
	}
}
