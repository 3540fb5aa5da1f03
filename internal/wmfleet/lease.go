// Package wmfleet runs N workflow-manager instances over one campaign,
// each owning a disjoint set of couplings, with ownership coordinated
// through the datastore instead of a central orchestrator — the
// stigmergy shape of ROADMAP "The store is the only channel". Every
// coupling is guarded by a virtual-clock lease written through the
// (armored) store: instances
// acquire leases at start, renew them on a ticker, and when an instance
// crashes its leases stop being renewed, expire, and a surviving
// instance adopts the orphaned couplings by replaying their checkpointed
// Task-2/Task-4 state from store records. The campaign continues without
// a conductor restart; the paper's single-WM coordination point stops
// being a single point of failure.
//
// Determinism: every fleet decision (lease grants, renewals, adoption
// order, crash handling) is a pure function of (seed, config, virtual
// time). Store operations advance no virtual time and vclock callbacks
// are serialized, so a Get-then-Put inside one callback is atomic —
// which is what makes the lease table's compare-and-swap semantics sound
// without a real consensus protocol. Two same-seed runs with the same
// fleet size replay byte-identically, crash/adoption schedule included.
package wmfleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

// Lease is the JSON record a coupling's ownership is coordinated
// through, stored at (namespace, coupling-name). Holder is the owning
// instance index; Term increments on every acquisition, so a stale
// holder can never renew a lease that changed hands; ExpiresNs is the
// virtual-clock expiry in nanoseconds since the Unix epoch.
type Lease struct {
	// Holder is the 0-based index of the instance holding the lease.
	Holder int `json:"holder"`
	// Term counts acquisitions; renewals keep the term, takeovers bump it.
	Term int64 `json:"term"`
	// ExpiresNs is the virtual-time expiry (UnixNano). At or past this
	// instant the lease is expired: expiry strictly wins a renew racing
	// it at the same virtual timestamp.
	ExpiresNs int64 `json:"expires_ns"`
}

const (
	// leaseTTL is how long an unrenewed lease stays live. A crashed
	// instance's couplings become adoptable one TTL after its last renewal.
	leaseTTL = 10 * time.Minute
	// renewEvery is the renew/sweep ticker period: a healthy instance has
	// two chances to renew before expiry.
	renewEvery = leaseTTL / 3
)

// LeaseTable implements acquire/renew/load over one store namespace.
// All methods must be called from virtual-clock callbacks (the fleet's
// tickers and fault handlers), which serializes them; the table performs
// no locking of its own beyond what the store provides.
type LeaseTable struct {
	clk   *vclock.Virtual
	store datastore.Store
	tel   *telemetry.Telemetry
	ns    string
	// onExpire observes each takeover of an expired lease (fleet
	// accounting); nil is allowed.
	onExpire func()
	// wmfleet.lease_* metric handles
	expirations, acquired, renewals telemetry.Lazy[telemetry.Counter]
	renewAge                        telemetry.Lazy[telemetry.Histogram]
}

// NewLeaseTable builds a lease table over one store namespace; leases live
// leaseTTL. tel may be nil (metrics discarded).
func NewLeaseTable(clk *vclock.Virtual, store datastore.Store, tel *telemetry.Telemetry, ns string) *LeaseTable {
	if tel == nil {
		tel = telemetry.Nop()
	}
	return &LeaseTable{clk: clk, store: store, tel: tel, ns: ns}
}

// Acquire attempts to take the lease on coupling for holder. It succeeds
// when the lease is unheld, expired, or already held by this holder, and
// returns the new term; a live lease held by another instance returns
// ok=false. Taking over another holder's expired lease counts toward
// wmfleet.lease_expirations_total. Errors are store errors surviving the
// armor (the caller retries on its next tick).
func (l *LeaseTable) Acquire(holder int, coupling string) (term int64, ok bool, err error) {
	now := l.clk.Now().UnixNano()
	var rec Lease
	data, err := l.store.Get(l.ns, coupling)
	switch {
	case errors.Is(err, datastore.ErrNotFound):
		// Unheld: first acquisition starts at term 1.
	case err != nil:
		return 0, false, err
	default:
		if err := json.Unmarshal(data, &rec); err != nil {
			return 0, false, fmt.Errorf("wmfleet: corrupt lease %s/%s: %w", l.ns, coupling, err)
		}
		if rec.Holder != holder && now < rec.ExpiresNs {
			return 0, false, nil // live lease held elsewhere
		}
		if rec.Holder != holder {
			// Taking over a dead holder's expired lease.
			l.expirations.Get(l.tel, "wmfleet.lease_expirations_total").Inc()
			if l.onExpire != nil {
				l.onExpire()
			}
		}
	}
	rec = Lease{Holder: holder, Term: rec.Term + 1, ExpiresNs: now + leaseTTL.Nanoseconds()}
	b, err := json.Marshal(rec)
	if err != nil {
		return 0, false, err
	}
	if err := l.store.Put(l.ns, coupling, b); err != nil {
		return 0, false, err
	}
	l.acquired.Get(l.tel, "wmfleet.lease_acquired_total").Inc()
	return rec.Term, true, nil
}

// Renew extends holder's lease on coupling for another TTL without
// changing the term. It fails (ok=false, no error) when the lease is
// missing, held by someone else, on a different term, or already expired
// — expiry at the exact renewal timestamp counts as expired, so a renew
// racing expiry at the same virtual instant always loses. Each
// successful renewal observes the lease's age since grant in the
// wmfleet.lease_renew_age_ms histogram (renew latency relative to the
// lease lifetime: age close to the TTL means the margin is thin).
func (l *LeaseTable) Renew(holder int, term int64, coupling string) (ok bool, err error) {
	data, err := l.store.Get(l.ns, coupling)
	if errors.Is(err, datastore.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var rec Lease
	if err := json.Unmarshal(data, &rec); err != nil {
		return false, fmt.Errorf("wmfleet: corrupt lease %s/%s: %w", l.ns, coupling, err)
	}
	now := l.clk.Now().UnixNano()
	if rec.Holder != holder || rec.Term != term || now >= rec.ExpiresNs {
		return false, nil
	}
	granted := rec.ExpiresNs - leaseTTL.Nanoseconds()
	l.renewAge.Get(l.tel, "wmfleet.lease_renew_age_ms").
		Observe(float64(now-granted) / 1e6)
	rec.ExpiresNs = now + leaseTTL.Nanoseconds()
	b, err := json.Marshal(rec)
	if err != nil {
		return false, err
	}
	if err := l.store.Put(l.ns, coupling, b); err != nil {
		return false, err
	}
	l.renewals.Get(l.tel, "wmfleet.lease_renewals_total").Inc()
	return true, nil
}

// Load reads the current lease on coupling; found=false means no record
// exists (never acquired in this namespace).
func (l *LeaseTable) Load(coupling string) (rec Lease, found bool, err error) {
	data, err := l.store.Get(l.ns, coupling)
	if errors.Is(err, datastore.ErrNotFound) {
		return Lease{}, false, nil
	}
	if err != nil {
		return Lease{}, false, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return Lease{}, false, fmt.Errorf("wmfleet: corrupt lease %s/%s: %w", l.ns, coupling, err)
	}
	return rec, true, nil
}

// Expired reports whether coupling's lease is adoptable at the current
// virtual time: no record, or a record at or past its expiry.
func (l *LeaseTable) Expired(coupling string) (bool, error) {
	rec, found, err := l.Load(coupling)
	if err != nil {
		return false, err
	}
	if !found {
		return true, nil
	}
	return l.clk.Now().UnixNano() >= rec.ExpiresNs, nil
}
