package datastore

import (
	"errors"
	"time"

	"mummi/internal/retry"
	"mummi/internal/telemetry"
)

// ArmorOptions parameterizes Armor.
type ArmorOptions struct {
	// Policy is the bounded-backoff schedule (zero fields take the retry
	// package defaults). Its Seed drives the deterministic jitter, so two
	// same-seed runs retry on identical schedules.
	Policy retry.Policy
	// Sleep, when non-nil, is called with each backoff delay between
	// attempts. Real-time deployments pass a real sleep; virtual-time
	// replays leave it nil — a discrete-event callback cannot block, so the
	// delay is accounted in the store.backoff_ms histogram instead of slept.
	Sleep func(time.Duration)
	// Retryable classifies errors; nil means errors.Is(err, ErrTransient).
	Retryable func(error) bool
}

// Armor wraps a Store with the paper's I/O armoring (§4.4: "all I/O
// operations are armored with retries"): every operation is retried under a
// capped exponential backoff with deterministic jitter while the error is
// transient, and gives up — surfacing the last error — when the attempt
// budget is exhausted or the error is permanent. ErrNotFound is never
// retried (misses are normal feedback operation, not faults).
//
// Telemetry (labeled by backend):
//
//	store.retries_total — retries performed (attempts beyond the first)
//	store.gaveup_total  — operations that exhausted the attempt budget
//	store.backoff_ms    — histogram of scheduled backoff delays
//
// Like Instrument, Armor is capability-preserving: the returned Store
// satisfies exactly the BatchGetter/BatchMover extensions the wrapped store
// does. Compose the two as Armor(Instrument(s, …), …) when both are wanted:
// the inner Instrument then observes every physical attempt while Armor's
// counters report the retry discipline.
func Armor(s Store, tel *telemetry.Telemetry, backend string, opts ArmorOptions) Store {
	if s == nil {
		return nil
	}
	if tel == nil {
		tel = telemetry.Nop()
	}
	if opts.Retryable == nil {
		opts.Retryable = func(err error) bool { return errors.Is(err, ErrTransient) }
	}
	base := armored{s: s, tel: tel, backend: backend, opts: opts}
	bg, hasBG := s.(BatchGetter)
	bm, hasBM := s.(BatchMover)
	switch {
	case hasBG && hasBM:
		return &armoredBatchBoth{armored: base, bg: bg, bm: bm}
	case hasBG:
		return &armoredBatchGet{armored: base, bg: bg}
	case hasBM:
		return &armoredBatchMove{armored: base, bm: bm}
	default:
		return &armored{s: s, tel: tel, backend: backend, opts: opts}
	}
}

type armored struct {
	s       Store
	tel     *telemetry.Telemetry
	backend string
	opts    ArmorOptions
}

// do runs one operation under the retry policy, accounting retries, backoff
// delays, and give-ups.
func (a *armored) do(op func() error) error {
	sleep := func(d time.Duration) {
		a.tel.Counter(telemetry.Name("store.retries_total", "backend", a.backend)).Inc()
		a.tel.Histogram(telemetry.Name("store.backoff_ms", "backend", a.backend), "ms", nil).
			Observe(float64(d) / float64(time.Millisecond))
		if a.opts.Sleep != nil {
			a.opts.Sleep(d)
		}
	}
	_, err := a.opts.Policy.Do(sleep, a.opts.Retryable, op)
	if err != nil && a.opts.Retryable(err) {
		// A transient error escaping Do means the attempt budget ran out:
		// the armor gave up.
		a.tel.Counter(telemetry.Name("store.gaveup_total", "backend", a.backend)).Inc()
	}
	return err
}

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

type armoredBatchGet struct {
	armored
	bg BatchGetter
}

// GetBatch implements BatchGetter.
func (a *armoredBatchGet) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	return a.getBatch(a.bg, ns, keys)
}

type armoredBatchMove struct {
	armored
	bm BatchMover
}

// MoveBatch implements BatchMover.
func (a *armoredBatchMove) MoveBatch(srcNS string, keys []string, dstNS string) error {
	return a.moveBatch(a.bm, srcNS, keys, dstNS)
}

type armoredBatchBoth struct {
	armored
	bg BatchGetter
	bm BatchMover
}

// GetBatch implements BatchGetter.
func (a *armoredBatchBoth) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	return a.getBatch(a.bg, ns, keys)
}

// MoveBatch implements BatchMover.
func (a *armoredBatchBoth) MoveBatch(srcNS string, keys []string, dstNS string) error {
	return a.moveBatch(a.bm, srcNS, keys, dstNS)
}

func (a *armored) getBatch(bg BatchGetter, ns string, keys []string) (map[string][]byte, error) {
	var m map[string][]byte
	err := a.do(func() error {
		var err error
		m, err = bg.GetBatch(ns, keys)
		return err
	})
	return m, err
}

func (a *armored) moveBatch(bm BatchMover, srcNS string, keys []string, dstNS string) error {
	return a.do(func() error { return bm.MoveBatch(srcNS, keys, dstNS) })
}
