package datastore

import (
	"errors"
	"time"

	"mummi/internal/retry"
	"mummi/internal/telemetry"
)

// ArmorOptions parameterizes Armor. The retry schedule is the retry
// package's one fixed schedule.
type ArmorOptions struct {
	// Sleep, when non-nil, is called with each backoff delay between
	// attempts. Real-time deployments pass a real sleep; virtual-time
	// replays leave it nil — a discrete-event callback cannot block, so the
	// delay is accounted in the store.backoff_ms histogram instead of slept.
	Sleep func(time.Duration)
}

// Armor wraps a Store with the paper's I/O armoring (§4.4: "all I/O
// operations are armored with retries"): every operation is retried under
// retry's capped exponential backoff with deterministic jitter while the
// error is transient (errors.Is(err, ErrTransient)), and gives up —
// surfacing the last error — when the attempt budget is exhausted or the
// error is permanent. ErrNotFound is never retried (misses are normal
// feedback operation, not faults).
//
// Telemetry (labeled by backend):
//
//	store.retries_total — retries performed (attempts beyond the first)
//	store.gaveup_total  — operations that exhausted the attempt budget
//	store.backoff_ms    — histogram of scheduled backoff delays
//
// Like Instrument, Armor is capability-preserving (Extend): the returned
// Store satisfies exactly the BatchGetter/BatchMover extensions the wrapped
// store does. Compose the two as Armor(Instrument(s, …), …) when both are
// wanted: the inner Instrument then observes every physical attempt while
// Armor's counters report the retry discipline.
func Armor(s Store, tel *telemetry.Telemetry, backend string, opts ArmorOptions) Store {
	if s == nil {
		return nil
	}
	if tel == nil {
		tel = telemetry.Nop()
	}
	a := &armored{s: s, tel: tel, backend: backend, opts: opts}
	return Extend(s, a, a.getBatch, a.moveBatch)
}

type armored struct {
	s       Store
	tel     *telemetry.Telemetry
	backend string
	opts    ArmorOptions

	retries, gaveUp telemetry.Lazy[telemetry.Counter]
	backoff         telemetry.Lazy[telemetry.Histogram]
}

// do runs one operation under the retry schedule, accounting retries, backoff
// delays, and give-ups.
func (a *armored) do(op func() error) error {
	sleep := func(d time.Duration) {
		a.retries.Get(a.tel, "store.retries_total", "backend", a.backend).Inc()
		a.backoff.Get(a.tel, "store.backoff_ms", "backend", a.backend).
			Observe(float64(d) / float64(time.Millisecond))
		if a.opts.Sleep != nil {
			a.opts.Sleep(d)
		}
	}
	err := retry.Do(sleep, transient, op)
	if transient(err) {
		// A transient error escaping Do means the attempt budget ran out:
		// the armor gave up.
		a.gaveUp.Get(a.tel, "store.gaveup_total", "backend", a.backend).Inc()
	}
	return err
}

func transient(err error) bool { return errors.Is(err, ErrTransient) }

// Put implements Store.
func (a *armored) Put(ns, key string, data []byte) error {
	return a.do(func() error { return a.s.Put(ns, key, data) })
}

// Get implements Store.
func (a *armored) Get(ns, key string) ([]byte, error) {
	var v []byte
	err := a.do(func() error {
		var err error
		v, err = a.s.Get(ns, key)
		return err
	})
	return v, err
}

// Delete implements Store.
func (a *armored) Delete(ns, key string) error {
	return a.do(func() error { return a.s.Delete(ns, key) })
}

// Keys implements Store.
func (a *armored) Keys(ns string) ([]string, error) {
	var ks []string
	err := a.do(func() error {
		var err error
		ks, err = a.s.Keys(ns)
		return err
	})
	return ks, err
}

// Move implements Store.
func (a *armored) Move(srcNS, key, dstNS string) error {
	return a.do(func() error { return a.s.Move(srcNS, key, dstNS) })
}

// Close implements Store. Close is not retried: teardown errors are final.
func (a *armored) Close() error { return a.s.Close() }

func (a *armored) getBatch(ns string, keys []string) (map[string][]byte, error) {
	var m map[string][]byte
	err := a.do(func() error {
		var err error
		m, err = a.s.(BatchGetter).GetBatch(ns, keys)
		return err
	})
	return m, err
}

func (a *armored) moveBatch(srcNS string, keys []string, dstNS string) error {
	return a.do(func() error { return a.s.(BatchMover).MoveBatch(srcNS, keys, dstNS) })
}
