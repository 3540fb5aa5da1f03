package kvstore_test

import (
	"fmt"

	"testing"

	"mummi/internal/datastore"
	"mummi/internal/datastore/dstest"
	"mummi/internal/kvstore"
	"mummi/internal/telemetry"
)

func TestStoreConformance(t *testing.T) {
	dstest.Run(t, func(t *testing.T) datastore.Store {
		addrs, shutdown, err := kvstore.LaunchCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(shutdown)
		s, err := datastore.Open(datastore.Config{Backend: datastore.BackendKV, Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestArmoredStoreConformance re-runs the suite through datastore.Armor:
// the retry wrapper must be semantically invisible over a healthy cluster.
func TestArmoredStoreConformance(t *testing.T) {
	dstest.Run(t, func(t *testing.T) datastore.Store {
		addrs, shutdown, err := kvstore.LaunchCluster(3)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(shutdown)
		s, err := datastore.Open(datastore.Config{Backend: datastore.BackendKV, Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		return datastore.Armor(s, telemetry.Nop(), "kv", datastore.ArmorOptions{})
	})
}

func TestStoreRejectsSeparatorInNames(t *testing.T) {
	addrs, shutdown, err := kvstore.LaunchCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	s, err := datastore.Open(datastore.Config{Backend: datastore.BackendKV, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("bad:ns", "k", nil); err == nil {
		t.Error("namespace with separator accepted")
	}
	if err := s.Put("ns", "bad:key", nil); err == nil {
		t.Error("key with separator accepted")
	}
	if err := s.Put("", "k", nil); err == nil {
		t.Error("empty namespace accepted")
	}
	if _, err := s.Keys("bad:ns"); err == nil {
		t.Error("Keys with separator accepted")
	}
}

func TestStoreBatchOps(t *testing.T) {
	addrs, shutdown, err := kvstore.LaunchCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	s, err := datastore.Open(datastore.Config{Backend: datastore.BackendKV, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	bg, ok := s.(datastore.BatchGetter)
	if !ok {
		t.Fatal("kv store does not implement BatchGetter")
	}
	bm, ok := s.(datastore.BatchMover)
	if !ok {
		t.Fatal("kv store does not implement BatchMover")
	}

	var keys []string
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("f%03d", i)
		keys = append(keys, k)
		if err := s.Put("new", k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// Batch get, including misses.
	got, err := bg.GetBatch("new", append([]string{"missing"}, keys...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("GetBatch returned %d values", len(got))
	}
	if _, present := got["missing"]; present {
		t.Error("missing key present in batch result")
	}
	if string(got["f007"]) != "v-f007" {
		t.Errorf("value = %q", got["f007"])
	}
	// Batch move: the tagging primitive.
	if err := bm.MoveBatch("new", keys, "done"); err != nil {
		t.Fatal(err)
	}
	left, _ := s.Keys("new")
	done, _ := s.Keys("done")
	if len(left) != 0 || len(done) != 60 {
		t.Errorf("after MoveBatch: new=%d done=%d", len(left), len(done))
	}
	// Invalid names surface errors.
	if _, err := bg.GetBatch("bad:ns", []string{"k"}); err == nil {
		t.Error("GetBatch with bad namespace accepted")
	}
	if err := bm.MoveBatch("new", []string{"bad:key"}, "done"); err == nil {
		t.Error("MoveBatch with bad key accepted")
	}
}

func TestStoreMoveStaysOnNode(t *testing.T) {
	// Key-based placement: a namespace move must not change the owning
	// node, so the value survives even if the "other" namespace hashes
	// elsewhere.
	addrs, shutdown, err := kvstore.LaunchCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	s, err := datastore.Open(datastore.Config{Backend: datastore.BackendKV, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("key%02d", i)
		if err := s.Put("a", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if err := s.Move("a", k, "b"); err != nil {
			t.Fatal(err)
		}
		v, err := s.Get("b", k)
		if err != nil || string(v) != k {
			t.Fatalf("Get after move = %q, %v", v, err)
		}
	}
}

// TestStoreAndClusterAgreeOnPlacement: a Store and a Cluster over the same
// shards are one client, so each reads, fetches and deletes what the other
// wrote, under ns:key.
func TestStoreAndClusterAgreeOnPlacement(t *testing.T) {
	addrs, shutdown, err := kvstore.LaunchCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	c, err := kvstore.DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	st := kvstore.NewStore(c)
	defer st.Close()
	const ns, n = "rdf", 50
	keys, full := make([]string, n), make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("f%03d", i)
		full[i] = ns + ":" + keys[i]
	}

	for _, k := range keys {
		if err := st.Put(ns, k, []byte("s-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	missed := 0
	for i, k := range full {
		if v, err := c.Get(k); err != nil || string(v) != "s-"+keys[i] {
			missed++
		}
	}
	vals, err := c.MGetSlice(full)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if string(v) != "s-"+keys[i] {
			missed++
		}
	}
	if missed != 0 {
		t.Errorf("Cluster.Get and MGetSlice missed %d of %d reads of keys Store.Put wrote", missed, 2*n)
	}
	if d, err := c.Del(full...); err != nil || d != n {
		t.Errorf("Cluster.Del removed %d of %d keys Store.Put wrote, %v", d, n, err)
	}

	for i, k := range full {
		if err := c.Set(k, []byte("c-"+keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	missed = 0
	for _, k := range keys {
		if v, err := st.Get(ns, k); err != nil || string(v) != "c-"+k {
			missed++
		}
	}
	got, err := st.GetBatch(ns, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if string(got[k]) != "c-"+k {
			missed++
		}
	}
	if missed != 0 {
		t.Errorf("Store.Get and GetBatch missed %d of %d reads of keys Cluster.Set wrote", missed, 2*n)
	}
	deleted := 0
	for _, k := range keys {
		if st.Delete(ns, k) == nil {
			deleted++
		}
	}
	if deleted != n {
		t.Errorf("Store.Delete removed %d of %d keys Cluster.Set wrote", deleted, n)
	}
}
