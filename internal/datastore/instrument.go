package datastore

import (
	"errors"

	"mummi/internal/telemetry"
)

// Instrument wraps a Store so every operation feeds the telemetry
// registry: per-backend op counters, read/write byte counters, and
// miss/error counters. The backend label keeps one campaign's stores
// distinguishable when several backends run side by side (the paper's
// deployments mix files, tar archives, and the database).
//
// The wrapper preserves the optional BatchGetter/BatchMover capabilities
// (Extend): the returned Store satisfies exactly the extensions the wrapped
// store does, counted as get_batch/move_batch ops.
func Instrument(s Store, tel *telemetry.Telemetry, backend string) Store {
	if s == nil {
		return nil
	}
	if tel == nil {
		tel = telemetry.Nop()
	}
	d := &instrumented{s: s, tel: tel, backend: backend}
	return Extend(s, d, d.getBatch, d.moveBatch)
}

type instrumented struct {
	s       Store
	tel     *telemetry.Telemetry
	backend string

	// store.ops_total per op, then the per-backend counters.
	putOps, getOps, deleteOps, keysOps, moveOps, getBatchOps, moveBatchOps telemetry.Lazy[telemetry.Counter]
	misses, errs, writeBytes, readBytes                                    telemetry.Lazy[telemetry.Counter]
}

// observe records one finished op: its count and the error split.
// ErrNotFound counts as a miss, not an error — lookups of
// not-yet-produced frames are part of normal feedback operation.
func (d *instrumented) observe(ops *telemetry.Lazy[telemetry.Counter], op string, err error) {
	t := d.tel
	ops.Get(t, "store.ops_total", "backend", d.backend, "op", op).Inc()
	if err == nil {
		return
	}
	if errors.Is(err, ErrNotFound) {
		d.misses.Get(t, "store.misses_total", "backend", d.backend).Inc()
	} else {
		d.errs.Get(t, "store.errors_total", "backend", d.backend).Inc()
	}
}

// Put implements Store.
func (d *instrumented) Put(ns, key string, data []byte) error {
	err := d.s.Put(ns, key, data)
	d.observe(&d.putOps, "put", err)
	if err == nil {
		d.writeBytes.Get(d.tel, "store.write_bytes_total", "backend", d.backend).Add(int64(len(data)))
	}
	return err
}

// Get implements Store.
func (d *instrumented) Get(ns, key string) ([]byte, error) {
	v, err := d.s.Get(ns, key)
	d.observe(&d.getOps, "get", err)
	if err == nil {
		d.readBytes.Get(d.tel, "store.read_bytes_total", "backend", d.backend).Add(int64(len(v)))
	}
	return v, err
}

// Delete implements Store.
func (d *instrumented) Delete(ns, key string) error {
	err := d.s.Delete(ns, key)
	d.observe(&d.deleteOps, "delete", err)
	return err
}

// Keys implements Store.
func (d *instrumented) Keys(ns string) ([]string, error) {
	ks, err := d.s.Keys(ns)
	d.observe(&d.keysOps, "keys", err)
	return ks, err
}

// Move implements Store.
func (d *instrumented) Move(srcNS, key, dstNS string) error {
	err := d.s.Move(srcNS, key, dstNS)
	d.observe(&d.moveOps, "move", err)
	return err
}

// Close implements Store.
func (d *instrumented) Close() error { return d.s.Close() }

func (d *instrumented) getBatch(ns string, keys []string) (map[string][]byte, error) {
	m, err := d.s.(BatchGetter).GetBatch(ns, keys)
	d.observe(&d.getBatchOps, "get_batch", err)
	if err == nil {
		var n int64
		for _, v := range m {
			n += int64(len(v))
		}
		d.readBytes.Get(d.tel, "store.read_bytes_total", "backend", d.backend).Add(n)
	}
	return m, err
}

func (d *instrumented) moveBatch(srcNS string, keys []string, dstNS string) error {
	err := d.s.(BatchMover).MoveBatch(srcNS, keys, dstNS)
	d.observe(&d.moveBatchOps, "move_batch", err)
	return err
}
