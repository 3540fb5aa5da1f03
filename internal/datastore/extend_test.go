package datastore_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/faults"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

// batchDouble is a Memory with both batch capabilities that counts the
// batch calls reaching it; the table below narrows it to each capability
// set.
type batchDouble struct {
	*datastore.Memory
	gets, moves int
}

func (b *batchDouble) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	b.gets++
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, err := b.Get(ns, k); err == nil {
			out[k] = v
		}
	}
	return out, nil
}

func (b *batchDouble) MoveBatch(srcNS string, keys []string, dstNS string) error {
	b.moves++
	for _, k := range keys {
		if err := b.Move(srcNS, k, dstNS); err != nil && !errors.Is(err, datastore.ErrNotFound) {
			return err
		}
	}
	return nil
}

// startedEngine returns a running fault engine over one store rule.
func startedEngine(tel *telemetry.Telemetry, r faults.Rule) *faults.Engine {
	e := faults.NewEngine(vclock.NewVirtual(time.Unix(0, 0)), tel, &faults.Plan{Seed: 1, Rules: []faults.Rule{r}})
	e.Start()
	return e
}

// TestWrappersPreserveCapabilities holds every capability-preserving wrapper
// to Extend's contract over every capability set: the wrapped store is a
// BatchGetter/BatchMover exactly when the inner store is, each batch call
// reaches the backend once, and each wrapper accounts for it its own way.
func TestWrappersPreserveCapabilities(t *testing.T) {
	variants := []struct {
		name      string
		get, move bool
		view      func(*batchDouble) datastore.Store
	}{
		{"plain", false, false, func(b *batchDouble) datastore.Store { return struct{ datastore.Store }{b} }},
		{"get-only", true, false, func(b *batchDouble) datastore.Store {
			return struct {
				datastore.Store
				datastore.BatchGetter
			}{b, b}
		}},
		{"move-only", false, true, func(b *batchDouble) datastore.Store {
			return struct {
				datastore.Store
				datastore.BatchMover
			}{b, b}
		}},
		{"both", true, true, func(b *batchDouble) datastore.Store { return b }},
	}
	// wrap wraps inner and returns a check that runs after each batch call,
	// with the call's store.ops_total label ("get_batch" or "move_batch").
	wrappers := []struct {
		name string
		wrap func(inner datastore.Store) (datastore.Store, func(t *testing.T, op string))
	}{
		{"Armor", func(inner datastore.Store) (datastore.Store, func(*testing.T, string)) {
			return datastore.Armor(inner, telemetry.Nop(), "memory", datastore.ArmorOptions{}),
				func(*testing.T, string) {}
		}},
		{"Instrument", func(inner datastore.Store) (datastore.Store, func(*testing.T, string)) {
			tel := telemetry.Nop()
			return datastore.Instrument(inner, tel, "memory"), func(t *testing.T, op string) {
				if got := tel.Registry().Counter("store.ops_total{backend=memory,op=" + op + "}").Value(); got != 1 {
					t.Errorf("%s ops = %d, want 1", op, got)
				}
			}
		}},
		{"WrapStore", func(inner datastore.Store) (datastore.Store, func(*testing.T, string)) {
			// A latency rule at rate 1 counts every draw without failing it;
			// a permanent rule at rate 1 names the drawing op in its error
			// and stops the call before the backend.
			tel := telemetry.Nop()
			s := faults.WrapStore(inner, startedEngine(tel, faults.Rule{Class: faults.StoreLatency, Rate: 1}))
			failing := faults.WrapStore(inner, startedEngine(nil, faults.Rule{Class: faults.StorePermanent, Rate: 1}))
			draws := int64(0)
			return s, func(t *testing.T, op string) {
				draws++
				if got := tel.Registry().Counter("faults.injected_total{class=store-latency-spike}").Value(); got != draws {
					t.Errorf("after %s: %d fault draws, want %d", op, got, draws)
				}
				var err error
				if op == "get_batch" {
					_, err = failing.(datastore.BatchGetter).GetBatch("ns", []string{"a"})
				} else {
					err = failing.(datastore.BatchMover).MoveBatch("ns", []string{"a"}, "done")
				}
				if want := " in " + strings.ReplaceAll(op, "_", ""); !errors.Is(err, faults.ErrInjectedPermanent) || !strings.Contains(err.Error(), want) {
					t.Errorf("%s fault = %v, want an injected fault labelled %q", op, err, want)
				}
			}
		}},
	}
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			for _, v := range variants {
				t.Run(v.name, func(t *testing.T) {
					b := &batchDouble{Memory: datastore.NewMemory()}
					s, check := w.wrap(v.view(b))
					bg, isBG := s.(datastore.BatchGetter)
					bm, isBM := s.(datastore.BatchMover)
					if isBG != v.get || isBM != v.move {
						t.Fatalf("BatchGetter=%v BatchMover=%v, want %v %v", isBG, isBM, v.get, v.move)
					}
					// Seed the backend directly, so the wrappers see only batch calls.
					if err := b.Put("ns", "a", []byte("xy")); err != nil {
						t.Fatalf("put: %v", err)
					}
					if isBG {
						got, err := bg.GetBatch("ns", []string{"a", "missing"})
						if err != nil || len(got) != 1 || string(got["a"]) != "xy" {
							t.Fatalf("GetBatch: %v %v", got, err)
						}
						check(t, "get_batch")
						if b.gets != 1 {
							t.Errorf("backend saw %d GetBatch calls, want 1", b.gets)
						}
					}
					if isBM {
						if err := bm.MoveBatch("ns", []string{"a"}, "done"); err != nil {
							t.Fatalf("MoveBatch: %v", err)
						}
						check(t, "move_batch")
						if b.moves != 1 {
							t.Errorf("backend saw %d MoveBatch calls, want 1", b.moves)
						}
						if _, err := b.Get("done", "a"); err != nil {
							t.Errorf("moved key missing: %v", err)
						}
					}
				})
			}
		})
	}
}
