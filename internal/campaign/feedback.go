package campaign

import (
	"fmt"
	"sort"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/feedback"
)

// Modeled per-item feedback costs. The totals reproduce the shape the paper
// reports (Fig. 8): scan and tag are cheap namespace operations, fetch is
// I/O, and AA processing dominates at ~2 s per frame (the external module).
const (
	fbScanPerKey  = 100 * time.Microsecond
	fbFetchPerKey = 200 * time.Microsecond
	fbTagPerKey   = 50 * time.Microsecond
	fbCGProcess   = 500 * time.Microsecond
	fbAAProcess   = 2 * time.Second
)

// modeledFeedback is the campaign's Task-4 feedback manager: a working
// scan → fetch → process → tag pipeline over the campaign's frame store,
// with process time modeled rather than computed. Each iteration lists the
// active namespace, batch-fetches the frames, and moves them to the done
// namespace — the paper's tagging strategy, so iteration cost tracks
// ongoing simulations, not campaign history. It consumes no randomness and
// never touches the job flow, so wiring it in (Config.FeedbackEvery) keeps
// replays deterministic.
type modeledFeedback struct {
	name       string
	store      datastore.Store
	srcNS      string
	dstNS      string
	perProcess time.Duration
}

// Name implements feedback.Manager.
func (m *modeledFeedback) Name() string { return m.name }

// Iterate implements feedback.Manager.
func (m *modeledFeedback) Iterate() (feedback.Report, error) {
	keys, err := m.store.Keys(m.srcNS)
	if err != nil {
		return feedback.Report{}, fmt.Errorf("campaign: feedback scan %s: %w", m.srcNS, err)
	}
	sort.Strings(keys)
	if bg, ok := m.store.(datastore.BatchGetter); ok {
		if _, err := bg.GetBatch(m.srcNS, keys); err != nil {
			return feedback.Report{}, fmt.Errorf("campaign: feedback fetch %s: %w", m.srcNS, err)
		}
	} else {
		for _, k := range keys {
			if _, err := m.store.Get(m.srcNS, k); err != nil {
				return feedback.Report{}, fmt.Errorf("campaign: feedback fetch %s/%s: %w", m.srcNS, k, err)
			}
		}
	}
	for _, k := range keys {
		if err := m.store.Move(m.srcNS, k, m.dstNS); err != nil {
			return feedback.Report{}, fmt.Errorf("campaign: feedback tag %s/%s: %w", m.srcNS, k, err)
		}
	}
	n := time.Duration(len(keys))
	return feedback.Report{
		Frames:  len(keys),
		Scan:    n * fbScanPerKey,
		Fetch:   n * fbFetchPerKey,
		Process: n * m.perProcess,
		Tag:     n * fbTagPerKey,
	}, nil
}

// fbPut stores one frame record in the feedback store's active namespace
// (no-op when feedback is off). Records are tiny placeholders — the replay
// models frame volume in the Result ledger; here only the key flow matters.
func (c *Campaign) fbPut(ns, key string, size int) {
	if c.fbStore == nil {
		return
	}
	if err := c.fbStore.Put(ns, key, make([]byte, size)); err != nil {
		if c.eng != nil {
			// Chaos replay: an injected permanent fault (or an exhausted
			// retry budget) legitimately loses this record. Count it — the
			// ledger stays deterministic — and move on.
			c.res.StorePutErrors++
			c.tel.Counter("campaign.store_put_errors_total").Inc()
			return
		}
		// The in-memory store cannot fail a Put; treat one as a bug.
		c.fail(fmt.Errorf("campaign: feedback put %s/%s: %w", ns, key, err))
	}
}
