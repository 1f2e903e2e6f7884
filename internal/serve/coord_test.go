package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
)

// fakeClock is an injectable clock for deterministic lease-expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0).UTC()}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func testCoordinator(t *testing.T, clk *fakeClock, maxActive int) *Coordinator {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordConfig{
		Store:     store,
		MaxActive: maxActive,
		LeaseTTL:  30 * time.Second,
		Now:       clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func submitTiny(t *testing.T, c *Coordinator) (string, int) {
	t.Helper()
	cfg := &gefin.Config{
		Seed:               7,
		FaultsPerComponent: 2,
		Components:         []fault.Component{fault.CompRegFile, fault.CompDTLB},
	}
	man, err := BuildManifest(KindInjection, cfg, nil, []string{"crc32"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	return id, len(man.Shards)
}

func fakePayload(t *testing.T) *ShardPayload {
	t.Helper()
	return &ShardPayload{InjMeta: &gefin.ShardMeta{GoldenCycles: 1}}
}

// TestLeaseExpiryTwoNodes pins the dead-node story: node A claims both
// shards and goes silent; after its leases expire node B claims the
// requeued shards and finishes the campaign. A's late renewal is
// refused, and A's late completion of a shard B already finished is a
// discarded duplicate.
func TestLeaseExpiryTwoNodes(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, 2)
	id, shards := submitTiny(t, c)
	if shards != 2 {
		t.Fatalf("want 2 shards, got %d", shards)
	}

	// Node A claims everything, then dies.
	a1, err := c.Claim("nodeA")
	if err != nil || a1 == nil {
		t.Fatalf("claim 1: %v %v", a1, err)
	}
	a2, err := c.Claim("nodeA")
	if err != nil || a2 == nil {
		t.Fatalf("claim 2: %v %v", a2, err)
	}
	if b, _ := c.Claim("nodeB"); b != nil {
		t.Fatalf("nodeB claimed %+v while all shards are leased", b)
	}

	// Within the TTL nothing is requeued.
	clk.Advance(10 * time.Second)
	if b, _ := c.Claim("nodeB"); b != nil {
		t.Fatalf("nodeB claimed %+v before lease expiry", b)
	}

	// Past the TTL both shards requeue and node B picks them up.
	clk.Advance(25 * time.Second)
	b1, err := c.Claim("nodeB")
	if err != nil || b1 == nil {
		t.Fatalf("nodeB claim after expiry: %v %v", b1, err)
	}
	b2, err := c.Claim("nodeB")
	if err != nil || b2 == nil {
		t.Fatalf("nodeB second claim after expiry: %v %v", b2, err)
	}
	if got := map[int]bool{b1.Shard: true, b2.Shard: true}; !got[a1.Shard] || !got[a2.Shard] {
		t.Fatalf("requeued shards %v do not cover A's %d,%d", got, a1.Shard, a2.Shard)
	}

	// A's lease is gone: renewal fails.
	if err := c.Renew("nodeA", id, a1.Shard); err == nil {
		t.Error("dead node's renewal accepted")
	}

	// B completes one shard; A's zombie completion of the same shard is
	// acknowledged and discarded (first durable record wins).
	if err := c.Complete("nodeB", id, b1.Shard, b1.Span, fakePayload(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("nodeA", id, b1.Shard, b1.Span, fakePayload(t)); err != nil {
		t.Fatalf("duplicate completion not acknowledged: %v", err)
	}
	if err := c.Complete("nodeB", id, b2.Shard, b2.Span, fakePayload(t)); err != nil {
		t.Fatal(err)
	}

	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateComplete || st.ShardsDone != 2 {
		t.Fatalf("state %s done %d, want complete 2", st.State, st.ShardsDone)
	}
}

// TestZombieCompletionBeatsRequeue pins the other race: A's lease
// expires and the shard requeues, but A finishes before anyone claims
// it. The completion lands, and the shard leaves the pending queue.
func TestZombieCompletionBeatsRequeue(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, 2)
	id, _ := submitTiny(t, c)

	a1, _ := c.Claim("nodeA")
	clk.Advance(time.Minute) // lease expires
	// A status poll runs the sweep, requeueing A's shard.
	if _, err := c.Status(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("nodeA", id, a1.Shard, a1.Span, fakePayload(t)); err != nil {
		t.Fatal(err)
	}
	// The completed shard must not be claimable again.
	seen := map[int]bool{}
	for {
		a, err := c.Claim("nodeB")
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			break
		}
		if a.Shard == a1.Shard {
			t.Fatalf("completed shard %d re-leased", a1.Shard)
		}
		seen[a.Shard] = true
	}
	if len(seen) != 1 {
		t.Fatalf("expected exactly the one remaining shard, saw %v", seen)
	}
}

// TestAdmissionQueue pins the bounded-concurrency contract: with
// MaxActive=1 the second campaign's shards are unclaimable until the
// first completes.
func TestAdmissionQueue(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, 1)
	id1, _ := submitTiny(t, c)
	id2, _ := submitTiny(t, c)

	// Drain campaign 1; every claim must come from it.
	var claims []*Assignment
	for {
		a, err := c.Claim("n")
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			break
		}
		if a.Campaign != id1 {
			t.Fatalf("claimed from %s while %s is queued ahead", a.Campaign, id1)
		}
		claims = append(claims, a)
	}
	st2, _ := c.Status(id2)
	if st2.State != StateQueued {
		t.Fatalf("campaign 2 is %s, want queued", st2.State)
	}
	for _, a := range claims {
		if err := c.Complete("n", id1, a.Shard, a.Span, fakePayload(t)); err != nil {
			t.Fatal(err)
		}
	}
	// Campaign 1 complete: campaign 2 is admitted on the next claim.
	a, err := c.Claim("n")
	if err != nil || a == nil {
		t.Fatalf("claim after admission: %v %v", a, err)
	}
	if a.Campaign != id2 {
		t.Fatalf("claimed from %s, want %s", a.Campaign, id2)
	}
}

// TestCoordinatorResume pins crash-restart: a fresh coordinator over the
// same store sees the completed shards as done and hands out exactly the
// incomplete ones.
func TestCoordinatorResume(t *testing.T) {
	clk := newFakeClock()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cc := CoordConfig{Store: store, LeaseTTL: 30 * time.Second, Now: clk.Now}
	c1, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	id, shards := submitTiny(t, c1)
	a, _ := c1.Claim("n")
	if err := c1.Complete("n", id, a.Shard, a.Span, fakePayload(t)); err != nil {
		t.Fatal(err)
	}
	// "Crash": c1 is dropped with one shard done and nothing closed
	// cleanly. A new coordinator over the same store resumes.
	c2, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDone != 1 || st.ShardsTotal != shards {
		t.Fatalf("resumed status %d/%d, want 1/%d", st.ShardsDone, st.ShardsTotal, shards)
	}
	seen := map[int]bool{}
	for {
		got, err := c2.Claim("n2")
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			break
		}
		if got.Shard == a.Shard {
			t.Fatalf("already-completed shard %d re-leased after resume", a.Shard)
		}
		seen[got.Shard] = true
	}
	if len(seen) != shards-1 {
		t.Fatalf("resume handed out %d shards, want %d", len(seen), shards-1)
	}
}

// TestCancel pins cancellation: pending shards are dropped, late
// completions are discarded, cancelling twice fails, and the state
// survives restart.
func TestCancel(t *testing.T) {
	clk := newFakeClock()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cc := CoordConfig{Store: store, Now: clk.Now}
	c1, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := submitTiny(t, c1)
	a, _ := c1.Claim("n")
	if err := c1.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := c1.Cancel(id); err == nil {
		t.Error("double cancel accepted")
	}
	if err := c1.Complete("n", id, a.Shard, a.Span, fakePayload(t)); err != nil {
		t.Fatalf("late completion after cancel should be discarded, got %v", err)
	}
	if got, _ := c1.Claim("n"); got != nil {
		t.Fatalf("claim from cancelled campaign: %+v", got)
	}
	if _, err := c1.Results(id); err == nil {
		t.Error("results of a cancelled campaign")
	}

	c2, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state after restart = %s, want cancelled", st.State)
	}
}

// TestBuildManifestValidation pins submission-time validation.
func TestBuildManifestValidation(t *testing.T) {
	inj := &gefin.Config{Seed: 1, FaultsPerComponent: 2}
	if _, err := BuildManifest(KindInjection, inj, nil, nil, 0); err == nil {
		t.Error("no workloads accepted")
	}
	if _, err := BuildManifest(KindInjection, inj, nil, []string{"no-such"}, 0); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := BuildManifest(KindInjection, inj, nil, []string{"crc32", "crc32"}, 0); err == nil {
		t.Error("duplicate workload accepted")
	}
	if _, err := BuildManifest(KindInjection, nil, nil, []string{"crc32"}, 0); err == nil {
		t.Error("injection kind without config accepted")
	}
	if _, err := BuildManifest(KindBeam, nil, nil, []string{"crc32"}, 0); err == nil {
		t.Error("beam kind without config accepted")
	}
	if _, err := BuildManifest("other", inj, nil, []string{"crc32"}, 0); err == nil {
		t.Error("unknown kind accepted")
	}
	exh := &gefin.Config{Seed: 1, Exhaustive: true}
	if _, err := BuildManifest(KindInjection, exh, nil, []string{"crc32"}, 0); err == nil {
		t.Error("exhaustive sweep accepted for remote fan-out (its plan is data-dependent, not derivable from the manifest)")
	}
	man, err := BuildManifest(KindInjection, inj, nil, []string{"crc32"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Plan length 6x2=12 at shard size 3 -> 4 shards covering [0,12).
	if len(man.Shards) != 4 || man.Shards[3].Hi != gefin.PlanLen(*inj) {
		t.Fatalf("shards = %+v", man.Shards)
	}
	covered := 0
	for _, sh := range man.Shards {
		covered += sh.Items()
	}
	if covered != gefin.PlanLen(*inj) {
		t.Fatalf("shards cover %d slots, want %d", covered, gefin.PlanLen(*inj))
	}
}

// TestResultsIncomplete pins that Results refuses campaigns that are not
// complete, and that the error names the state.
func TestResultsIncomplete(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, 1)
	id, _ := submitTiny(t, c)
	if _, err := c.Results(id); err == nil || !strings.Contains(err.Error(), "not complete") {
		t.Errorf("incomplete results error = %v", err)
	}
	if _, err := c.Results("nope"); err == nil {
		t.Error("unknown campaign accepted")
	}
}
