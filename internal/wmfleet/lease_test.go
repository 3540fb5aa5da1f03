package wmfleet

import (
	"testing"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/faults"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

var epoch = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

func newTestTable() (*vclock.Virtual, *LeaseTable) {
	clk := vclock.NewVirtual(epoch)
	return clk, NewLeaseTable(clk, datastore.NewMemory(), nil, "lease")
}

func TestLeaseAcquireExcludesLiveHolder(t *testing.T) {
	_, lt := newTestTable()
	term, ok, err := lt.Acquire(0, "c")
	if err != nil || !ok || term != 1 {
		t.Fatalf("first acquire: term=%d ok=%v err=%v", term, ok, err)
	}
	if _, ok, err := lt.Acquire(1, "c"); err != nil || ok {
		t.Fatalf("acquire against live lease: ok=%v err=%v", ok, err)
	}
	// Re-acquire by the holder bumps the term (self-heal path).
	term, ok, err = lt.Acquire(0, "c")
	if err != nil || !ok || term != 2 {
		t.Fatalf("re-acquire by holder: term=%d ok=%v err=%v", term, ok, err)
	}
}

func TestRenewChecksHolderAndTerm(t *testing.T) {
	_, lt := newTestTable()
	term, _, _ := lt.Acquire(0, "c")
	if ok, err := lt.Renew(0, term, "c"); err != nil || !ok {
		t.Fatalf("renew by holder: ok=%v err=%v", ok, err)
	}
	if ok, _ := lt.Renew(1, term, "c"); ok {
		t.Fatal("renew by non-holder succeeded")
	}
	if ok, _ := lt.Renew(0, term+1, "c"); ok {
		t.Fatal("renew with wrong term succeeded")
	}
	if ok, _ := lt.Renew(0, term, "missing"); ok {
		t.Fatal("renew of missing lease succeeded")
	}
}

// TestRenewRacingExpirySameTimestamp pins the tie-break: a renew arriving
// at the exact virtual instant the lease expires must lose, so the holder
// can never extend a lease an adopter is entitled to take at that instant.
func TestRenewRacingExpirySameTimestamp(t *testing.T) {
	clk, lt := newTestTable()
	term, _, _ := lt.Acquire(0, "c")
	done := false
	clk.After(leaseTTL, func() {
		if ok, err := lt.Renew(0, term, "c"); err != nil || ok {
			t.Errorf("renew at expiry instant: ok=%v err=%v (want ok=false)", ok, err)
		}
		// The adopter racing at the same instant wins.
		next, ok, err := lt.Acquire(1, "c")
		if err != nil || !ok || next != term+1 {
			t.Errorf("takeover at expiry instant: term=%d ok=%v err=%v", next, ok, err)
		}
		done = true
	})
	clk.RunUntil(epoch.Add(leaseTTL))
	if !done {
		t.Fatal("race callback never ran")
	}
}

// TestDoubleAdoptionPrevention pins the term-bump gate: after a lease
// expires, exactly one of two would-be adopters wins it; the loser's
// acquire reports a live lease and the dead holder's stale renewals stay
// rejected.
func TestDoubleAdoptionPrevention(t *testing.T) {
	clk, lt := newTestTable()
	expirations := 0
	lt.onExpire = func() { expirations++ }
	oldTerm, _, _ := lt.Acquire(0, "c")
	clk.After(leaseTTL+time.Minute, func() {
		term1, ok, err := lt.Acquire(1, "c")
		if err != nil || !ok {
			t.Errorf("first adopter: ok=%v err=%v", ok, err)
		}
		if _, ok, err := lt.Acquire(2, "c"); err != nil || ok {
			t.Errorf("second adopter stole the lease: ok=%v err=%v", ok, err)
		}
		if ok, _ := lt.Renew(0, oldTerm, "c"); ok {
			t.Error("dead holder renewed a reassigned lease")
		}
		if ok, err := lt.Renew(1, term1, "c"); err != nil || !ok {
			t.Errorf("adopter renew: ok=%v err=%v", ok, err)
		}
	})
	clk.RunUntil(epoch.Add(leaseTTL + 2*time.Minute))
	if expirations != 1 {
		t.Fatalf("expiration takeovers = %d, want 1", expirations)
	}
}

// TestLeaseOpsSurviveTransientBurst drives the lease protocol through the
// armored store while the fault engine injects transient errors at a high
// rate: the armor's in-instant retries must keep acquire/renew succeeding
// (same layering the campaign wires).
func TestLeaseOpsSurviveTransientBurst(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	plan := &faults.Plan{Seed: 11, Rules: []faults.Rule{
		{Class: faults.StoreTransient, Rate: 0.5},
	}}
	eng := faults.NewEngine(clk, nil, plan)
	eng.Start()
	store := datastore.Armor(faults.WrapStore(datastore.NewMemory(), eng),
		telemetry.Nop(), "memory", datastore.ArmorOptions{})
	lt := NewLeaseTable(clk, store, nil, "lease")
	term, ok, err := lt.Acquire(0, "c")
	if err != nil || !ok {
		t.Fatalf("acquire under burst: ok=%v err=%v", ok, err)
	}
	renewed, failed := 0, 0
	tick := vclock.NewTicker(clk, renewEvery, func(time.Time) {
		ok, err := lt.Renew(0, term, "c")
		if err == nil && ok {
			renewed++
			return
		}
		failed++
		// A renewal (or its recovery) can lose its whole attempt budget to
		// the burst; the fleet's answer is to re-acquire, retrying on the
		// next tick if even that fails. Mirror that here.
		if next, ok2, err2 := lt.Acquire(0, "c"); err2 == nil && ok2 {
			term = next
		}
	})
	clk.RunUntil(epoch.Add(6 * time.Hour))
	tick.Stop()
	if renewed == 0 {
		t.Fatalf("no renewals succeeded under burst (failed=%d)", failed)
	}
	// The protocol must recover once an op gets through the armor: a fresh
	// acquire by the (sole) holder succeeds within a bounded number of
	// attempts — deterministic for the fixed seed.
	recovered := false
	for i := 0; i < 20 && !recovered; i++ {
		if _, ok, err := lt.Acquire(0, "c"); err == nil && ok {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("holder could not re-acquire after burst (renewed=%d failed=%d)", renewed, failed)
	}
}
