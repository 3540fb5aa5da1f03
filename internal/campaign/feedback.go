package campaign

import (
	"fmt"

	"mummi/internal/datastore"
	"mummi/internal/feedback"
)

// feedbackPass is the campaign's Task-4 feedback manager: feedback.Pass over
// the campaign's frame store, moving each iteration's records out of the
// active namespace ("tagging"), so iteration cost tracks ongoing simulations,
// not campaign history. The records are placeholders, so processing only
// counts them. It consumes no randomness and never touches the job flow, so
// wiring it in (Config.FeedbackEvery) keeps replays deterministic.
type feedbackPass struct {
	srcNS, dstNS string
	store        datastore.Store
}

// Iterate implements feedback.Manager.
func (m *feedbackPass) Iterate() (feedback.Report, error) {
	return feedback.Pass(m.store, m.srcNS, m.dstNS, func(v [][]byte) (int, error) { return len(v), nil })
}

// fbRecord is every feedback record's payload (the ledger models frame volume;
// here only the key flow matters). Stores copy what they are handed.
var fbRecord = make([]byte, 128)

// fbPut numbers the next frame record and stores it in the feedback store's
// active namespace (numbering only when feedback is off).
func (c *Campaign) fbPut(ns string) {
	c.fbSeq++
	if c.fbStore == nil {
		return
	}
	key := string(appendFeedbackKey(make([]byte, 0, 20), c.fbSeq))
	if err := c.fbStore.Put(ns, key, fbRecord); err != nil {
		if c.eng != nil {
			// Chaos replay: an injected permanent fault (or an exhausted
			// retry budget) legitimately loses this record. Count it — the
			// ledger stays deterministic — and move on.
			c.res.StorePutErrors++
			c.putErrors.Get(c.tel, "campaign.store_put_errors_total").Inc()
			return
		}
		// The in-memory store cannot fail a Put; treat one as a bug.
		c.fail(fmt.Errorf("campaign: feedback put %s/%s: %w", ns, key, err))
	}
}
