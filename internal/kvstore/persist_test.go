package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestPersistRoundTrip(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 500; i++ {
		e.Set(fmt.Sprintf("rdf:new:%04d", i), []byte(fmt.Sprintf("payload-%d", i)))
	}
	e.Set("empty", nil)
	e.Set("binary", []byte{0, 1, 2, 255, 254})

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewEngine()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Size() != e.Size() {
		t.Fatalf("sizes: %d vs %d", restored.Size(), e.Size())
	}
	v, err := restored.Get("rdf:new:0123")
	if err != nil || string(v) != "payload-123" {
		t.Errorf("Get = %q, %v", v, err)
	}
	if v, err := restored.Get("empty"); err != nil || len(v) != 0 {
		t.Errorf("empty value = %q, %v", v, err)
	}
	if v, _ := restored.Get("binary"); !bytes.Equal(v, []byte{0, 1, 2, 255, 254}) {
		t.Errorf("binary value = %v", v)
	}
}

func TestPersistFileAndServerRestart(t *testing.T) {
	// The resilience scenario: a KV node dies, restarts from its snapshot,
	// and clients see the same keyspace at the same address.
	dir := t.TempDir()
	snap := filepath.Join(dir, "node0.mkv")

	e := NewEngine()
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialCluster([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	srv.Close() // node dies

	// Restart: fresh engine loaded from the snapshot, same address.
	e2 := NewEngine()
	if err := e2.LoadFile(snap); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(e2)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	v, err := c.Get("k042") // the shard redials the same address
	if err != nil || string(v) != "v" {
		t.Fatalf("Get after restart = %q, %v", v, err)
	}
	if n, _ := c.Size(); n != 100 {
		t.Errorf("Size after restart = %d", n)
	}
}

func TestLoadErrors(t *testing.T) {
	e := NewEngine()
	if err := e.Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot loaded")
	}
	if err := e.Load(bytes.NewReader([]byte("XXXX????"))); err == nil {
		t.Error("bad magic loaded")
	}
	// Truncated snapshot.
	good := NewEngine()
	good.Set("k", []byte("value"))
	var buf bytes.Buffer
	good.Save(&buf)
	if err := e.Load(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Error("truncated snapshot loaded")
	}
	// Corrupt length prefix.
	b := buf.Bytes()
	corrupt := append([]byte{}, b[:12]...)
	corrupt = append(corrupt, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if err := e.Load(bytes.NewReader(corrupt)); err == nil {
		t.Error("absurd length prefix loaded")
	}
	if err := e.LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestPropertyPersistPreservesKeyspace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		model := map[string]string{}
		for i := 0; i < 50+rng.Intn(100); i++ {
			k := fmt.Sprintf("k%d", rng.Intn(60))
			v := fmt.Sprintf("v%d", rng.Int63())
			e.Set(k, []byte(v))
			model[k] = v
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			return false
		}
		r := NewEngine()
		if err := r.Load(&buf); err != nil {
			return false
		}
		if r.Size() != len(model) {
			return false
		}
		for k, v := range model {
			got, err := r.Get(k)
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
