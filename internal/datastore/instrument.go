package datastore

import (
	"errors"
	"time"

	"mummi/internal/telemetry"
)

// Instrument wraps a Store so every operation feeds the telemetry
// registry: per-backend op counters, read/write byte counters, per-op
// latency histograms, and miss/error counters. The backend label keeps one
// campaign's stores distinguishable when several backends run side by side
// (the paper's deployments mix files, tar archives, and the database).
//
// The wrapper preserves the optional BatchGetter/BatchMover capabilities:
// the returned Store satisfies exactly the extensions the wrapped store
// does, so feedback loops still pick their batched paths by type
// assertion.
func Instrument(s Store, tel *telemetry.Telemetry, backend string) Store {
	if s == nil {
		return nil
	}
	if tel == nil {
		tel = telemetry.Nop()
	}
	base := instrumented{s: s, tel: tel, backend: backend}
	bg, hasBG := s.(BatchGetter)
	bm, hasBM := s.(BatchMover)
	switch {
	case hasBG && hasBM:
		return &instrumentedBatchBoth{instrumented: base, bg: bg, bm: bm}
	case hasBG:
		return &instrumentedBatchGet{instrumented: base, bg: bg}
	case hasBM:
		return &instrumentedBatchMove{instrumented: base, bm: bm}
	default:
		return &instrumented{s: s, tel: tel, backend: backend}
	}
}

type instrumented struct {
	s       Store
	tel     *telemetry.Telemetry
	backend string
}

// observeAt records one finished op: count, latency, and the error split.
// ErrNotFound counts as a miss, not an error — lookups of
// not-yet-produced frames are part of normal feedback operation.
func (d *instrumented) observeAt(op string, start time.Time, err error) {
	t := d.tel
	t.Counter(telemetry.Name("store.ops_total", "backend", d.backend, "op", op)).Inc()
	t.Histogram(telemetry.Name("store.op_ms", "backend", d.backend, "op", op), "ms", nil).
		Observe(t.MsSince(start))
	if err == nil {
		return
	}
	if errors.Is(err, ErrNotFound) {
		t.Counter(telemetry.Name("store.misses_total", "backend", d.backend)).Inc()
	} else {
		t.Counter(telemetry.Name("store.errors_total", "backend", d.backend)).Inc()
	}
}

// Put implements Store.
func (d *instrumented) Put(ns, key string, data []byte) error {
	start := d.tel.Now()
	err := d.s.Put(ns, key, data)
	d.observeAt("put", start, err)
	if err == nil {
		d.tel.Counter(telemetry.Name("store.write_bytes_total", "backend", d.backend)).Add(int64(len(data)))
	}
	return err
}

// Get implements Store.
func (d *instrumented) Get(ns, key string) ([]byte, error) {
	start := d.tel.Now()
	v, err := d.s.Get(ns, key)
	d.observeAt("get", start, err)
	if err == nil {
		d.tel.Counter(telemetry.Name("store.read_bytes_total", "backend", d.backend)).Add(int64(len(v)))
	}
	return v, err
}

// Delete implements Store.
func (d *instrumented) Delete(ns, key string) error {
	start := d.tel.Now()
	err := d.s.Delete(ns, key)
	d.observeAt("delete", start, err)
	return err
}

// Keys implements Store.
func (d *instrumented) Keys(ns string) ([]string, error) {
	start := d.tel.Now()
	ks, err := d.s.Keys(ns)
	d.observeAt("keys", start, err)
	return ks, err
}

// Move implements Store.
func (d *instrumented) Move(srcNS, key, dstNS string) error {
	start := d.tel.Now()
	err := d.s.Move(srcNS, key, dstNS)
	d.observeAt("move", start, err)
	return err
}

// Close implements Store.
func (d *instrumented) Close() error { return d.s.Close() }

type instrumentedBatchGet struct {
	instrumented
	bg BatchGetter
}

// GetBatch implements BatchGetter.
func (d *instrumentedBatchGet) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	return d.getBatch(d.bg, ns, keys)
}

type instrumentedBatchMove struct {
	instrumented
	bm BatchMover
}

// MoveBatch implements BatchMover.
func (d *instrumentedBatchMove) MoveBatch(srcNS string, keys []string, dstNS string) error {
	return d.moveBatch(d.bm, srcNS, keys, dstNS)
}

type instrumentedBatchBoth struct {
	instrumented
	bg BatchGetter
	bm BatchMover
}

// GetBatch implements BatchGetter.
func (d *instrumentedBatchBoth) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	return d.getBatch(d.bg, ns, keys)
}

// MoveBatch implements BatchMover.
func (d *instrumentedBatchBoth) MoveBatch(srcNS string, keys []string, dstNS string) error {
	return d.moveBatch(d.bm, srcNS, keys, dstNS)
}

func (d *instrumented) getBatch(bg BatchGetter, ns string, keys []string) (map[string][]byte, error) {
	start := d.tel.Now()
	m, err := bg.GetBatch(ns, keys)
	d.observeAt("get_batch", start, err)
	if err == nil {
		var n int64
		for _, v := range m {
			n += int64(len(v))
		}
		d.tel.Counter(telemetry.Name("store.read_bytes_total", "backend", d.backend)).Add(n)
	}
	return m, err
}

func (d *instrumented) moveBatch(bm BatchMover, srcNS string, keys []string, dstNS string) error {
	start := d.tel.Now()
	err := bm.MoveBatch(srcNS, keys, dstNS)
	d.observeAt("move_batch", start, err)
	return err
}
