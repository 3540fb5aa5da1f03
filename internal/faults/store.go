package faults

import (
	"mummi/internal/datastore"
)

// WrapStore interposes the engine's store-fault rules in front of every
// operation of s: before each call the engine draws the store-class rules,
// possibly charging a latency spike (accounted, not slept — virtual-clock
// callbacks cannot block) and possibly failing the operation with a
// transient (retryable, wraps datastore.ErrTransient) or permanent
// (ErrInjectedPermanent) error before it reaches the backend. Compose with
// the armor as
//
//	datastore.Armor(WrapStore(Instrument(s, …), e), …)
//
// so that injected transient faults exercise the retry path while the inner
// instrumentation still sees every surviving physical operation.
//
// Like datastore.Armor and datastore.Instrument, WrapStore preserves the
// wrapped store's BatchGetter/BatchMover capabilities exactly
// (datastore.Extend), drawing one getbatch/movebatch fault per batch call.
// A nil engine returns s unchanged.
func WrapStore(s datastore.Store, e *Engine) datastore.Store {
	if e == nil || s == nil {
		return s
	}
	f := &faultyStore{s: s, e: e}
	return datastore.Extend(s, f, f.getBatch, f.moveBatch)
}

type faultyStore struct {
	s datastore.Store
	e *Engine
}

// inject draws the engine once for this operation and returns the injected
// error, if any. Latency spikes are accounted inside the engine.
func (f *faultyStore) inject(op string) error {
	_, err := f.e.DrawStore(op)
	return err
}

// Put implements datastore.Store.
func (f *faultyStore) Put(ns, key string, data []byte) error {
	if err := f.inject("put"); err != nil {
		return err
	}
	return f.s.Put(ns, key, data)
}

// Get implements datastore.Store.
func (f *faultyStore) Get(ns, key string) ([]byte, error) {
	if err := f.inject("get"); err != nil {
		return nil, err
	}
	return f.s.Get(ns, key)
}

// Delete implements datastore.Store.
func (f *faultyStore) Delete(ns, key string) error {
	if err := f.inject("delete"); err != nil {
		return err
	}
	return f.s.Delete(ns, key)
}

// Keys implements datastore.Store.
func (f *faultyStore) Keys(ns string) ([]string, error) {
	if err := f.inject("keys"); err != nil {
		return nil, err
	}
	return f.s.Keys(ns)
}

// Move implements datastore.Store.
func (f *faultyStore) Move(srcNS, key, dstNS string) error {
	if err := f.inject("move"); err != nil {
		return err
	}
	return f.s.Move(srcNS, key, dstNS)
}

// Close implements datastore.Store. Teardown is never sabotaged.
func (f *faultyStore) Close() error { return f.s.Close() }

func (f *faultyStore) getBatch(ns string, keys []string) (map[string][]byte, error) {
	if err := f.inject("getbatch"); err != nil {
		return nil, err
	}
	return f.s.(datastore.BatchGetter).GetBatch(ns, keys)
}

func (f *faultyStore) moveBatch(srcNS string, keys []string, dstNS string) error {
	if err := f.inject("movebatch"); err != nil {
		return err
	}
	return f.s.(datastore.BatchMover).MoveBatch(srcNS, keys, dstNS)
}
