package taridx

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"mummi/internal/datastore"
	"mummi/internal/datastore/dstest"
	"mummi/internal/telemetry"
)

// has reports whether key is live in a's index.
func has(a *Archive, key string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.index[key]
	return ok
}

func openT(t *testing.T) (*Archive, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "a.tar")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return a, path
}

func TestPutGetRoundTrip(t *testing.T) {
	a, _ := openT(t)
	defer a.Close()
	want := []byte("patch data bytes")
	if err := a.Put("patch_000001.npy", want); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get("patch_000001.npy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Get = %q", got)
	}
}

func TestGetMissing(t *testing.T) {
	a, _ := openT(t)
	defer a.Close()
	if _, err := a.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestReinsertLastWins(t *testing.T) {
	// §4.4: "in the event of a failure during a write, the same key gets
	// reinserted and is taken to be the correct value."
	a, _ := openT(t)
	defer a.Close()
	for i := 0; i < 5; i++ {
		if err := a.Put("k", []byte(fmt.Sprintf("version-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "version-4" {
		t.Errorf("Get = %q", got)
	}
	if a.Len() != 1 {
		t.Errorf("Len = %d", a.Len())
	}
	if st := a.Stats(); st.Appends != 5 {
		t.Errorf("Appends = %d, want 5 (append-only)", st.Appends)
	}
}

func TestDeleteIsIndexOnly(t *testing.T) {
	a, path := openT(t)
	if err := a.Put("k", []byte("still-in-tar")); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, path)
	if err := a.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted key still readable")
	}
	if err := a.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
	a.Close()
	if got := fileSize(t, path); got != sizeBefore {
		t.Errorf("tar size changed on delete: %d -> %d (must be append-only)", sizeBefore, got)
	}
}

func TestArchiveIsStandardTar(t *testing.T) {
	// "The archives created using the pytaridx are standard tar files ...
	// can be used with the commonly-available decoder."
	a, path := openT(t)
	contents := map[string]string{"f1": "alpha", "f2": "beta", "f3": "gamma"}
	for k, v := range contents {
		if err := a.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := tar.NewReader(f)
	seen := map[string]string{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("standard tar decode failed: %v", err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		seen[hdr.Name] = string(b)
	}
	if !reflect.DeepEqual(seen, contents) {
		t.Errorf("tar contents = %v", seen)
	}
}

func TestReopenLoadsJournal(t *testing.T) {
	a, path := openT(t)
	if err := a.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if has(b, "k1") {
		t.Error("deleted key resurrected on reopen")
	}
	got, err := b.Get("k2")
	if err != nil || string(got) != "v2" {
		t.Errorf("Get after reopen = %q, %v", got, err)
	}
	// Appending after reopen must not corrupt earlier entries.
	if err := b.Put("k3", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	got, err = b.Get("k2")
	if err != nil || string(got) != "v2" {
		t.Errorf("Get k2 after append = %q, %v", got, err)
	}
}

func TestRebuildAfterLostIndex(t *testing.T) {
	a, path := openT(t)
	for i := 0; i < 10; i++ {
		if err := a.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Put("k03", []byte("v03-updated")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := os.Remove(path + IndexSuffix); err != nil {
		t.Fatal(err)
	}
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Len() != 10 {
		t.Errorf("rebuilt index has %d keys, want 10", b.Len())
	}
	got, err := b.Get("k03")
	if err != nil || string(got) != "v03-updated" {
		t.Errorf("rebuilt Get(k03) = %q, %v (last-wins must survive rebuild)", got, err)
	}
}

func TestRebuildToleratesTruncatedTail(t *testing.T) {
	// A crash mid-append leaves a truncated final entry; rebuild must keep
	// every complete entry and drop the torn one.
	a, path := openT(t)
	if err := a.Put("good1", bytes.Repeat([]byte("x"), 600)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("good2", bytes.Repeat([]byte("y"), 600)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("torn", bytes.Repeat([]byte("z"), 600)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	os.Remove(path + IndexSuffix)
	// Chop into the middle of the last entry's data: each entry occupies
	// 512 (header) + 1024 (600 B padded) = 1536 B, plus a 1024 B trailer;
	// cutting 2000 B off the end lands inside the third entry's data.
	size := fileSize(t, path)
	if err := os.Truncate(path, size-2000); err != nil {
		t.Fatal(err)
	}
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if has(b, "torn") {
		t.Error("truncated entry admitted to index")
	}
	for _, k := range []string{"good1", "good2"} {
		if _, err := b.Get(k); err != nil {
			t.Errorf("Get(%s) after truncation: %v", k, err)
		}
	}
	// And the archive must accept fresh appends at the repaired end.
	if err := b.Put("after", []byte("recovery")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("after")
	if err != nil || string(got) != "recovery" {
		t.Errorf("post-recovery append = %q, %v", got, err)
	}
}

func TestTornJournalLineIgnored(t *testing.T) {
	a, path := openT(t)
	if err := a.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Append garbage (simulating a torn journal write).
	jf, err := os.OpenFile(path+IndexSuffix, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	jf.WriteString(`{"k":"torn","o":99`)
	jf.Close()
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Get("k1"); err != nil {
		t.Errorf("good entry lost after torn journal: %v", err)
	}
	if has(b, "torn") {
		t.Error("torn journal record admitted")
	}
}

func TestStaleJournalTriggersRebuild(t *testing.T) {
	// Journal claims entries past the tar's end (e.g. tar was restored from
	// an older snapshot): must rebuild rather than serve bad offsets.
	a, path := openT(t)
	if err := a.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Truncate the tar to before k2 but keep the full journal.
	if err := os.Truncate(path, 1024); err != nil { // k1 header+data only
		t.Fatal(err)
	}
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if has(b, "k2") {
		t.Error("stale journal entry for k2 admitted")
	}
	if got, err := b.Get("k1"); err != nil || string(got) != "v1" {
		t.Errorf("Get(k1) = %q, %v", got, err)
	}
}

func TestKeyValidation(t *testing.T) {
	a, _ := openT(t)
	defer a.Close()
	bad := []string{"", string(bytes.Repeat([]byte("k"), 101)), "bad\nkey", "ctrl\x01"}
	for _, k := range bad {
		if err := a.Put(k, nil); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
	}
	// 100 bytes exactly is the USTAR limit and must be accepted.
	longest := string(bytes.Repeat([]byte("n"), 100))
	if err := a.Put(longest, []byte("ok")); err != nil {
		t.Errorf("Put(100-byte key) rejected: %v", err)
	}
}

func TestUseAfterClose(t *testing.T) {
	a, _ := openT(t)
	a.Close()
	if err := a.Put("k", nil); err == nil {
		t.Error("Put after Close succeeded")
	}
	if _, err := a.Get("k"); err == nil {
		t.Error("Get after Close succeeded")
	}
	if err := a.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	a, _ := openT(t)
	defer a.Close()
	payload := bytes.Repeat([]byte("p"), 1000)
	for i := 0; i < 4; i++ {
		if err := a.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Get("k0"); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Keys != 4 || st.Appends != 4 || st.Reads != 3 || st.BytesRead != 3000 {
		t.Errorf("Stats = %+v", st)
	}
	if st.ArchiveLen == 0 {
		t.Error("ArchiveLen not populated")
	}
}

func TestPropertyRandomOpsMatchModel(t *testing.T) {
	// The archive must behave exactly like a map under a random sequence of
	// put/delete/reinsert, including across a close/reopen cycle.
	f := func(seed int64) bool {
		dir, err := os.MkdirTemp("", "taridx")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "p.tar")
		a, err := Open(path)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[string]string{}
		keys := []string{"a", "b", "c", "d"}
		for i := 0; i < 60; i++ {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(4) == 0 {
				_, inModel := model[k]
				err := a.Delete(k)
				if inModel != (err == nil) {
					a.Close()
					return false
				}
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", i)
				if err := a.Put(k, []byte(v)); err != nil {
					a.Close()
					return false
				}
				model[k] = v
			}
		}
		a.Close()
		b, err := Open(path)
		if err != nil {
			return false
		}
		defer b.Close()
		if b.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, err := b.Get(k)
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStoreConformance(t *testing.T) {
	dstest.Run(t, func(t *testing.T) datastore.Store {
		s, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestArmoredStoreConformance re-runs the suite through datastore.Armor:
// the retry wrapper must be semantically invisible over a healthy backend.
func TestArmoredStoreConformance(t *testing.T) {
	dstest.Run(t, func(t *testing.T) datastore.Store {
		s, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return datastore.Armor(s, telemetry.Nop(), "taridx", datastore.ArmorOptions{})
	})
}

func TestStoreFactoryAndNamespaceFiles(t *testing.T) {
	root := t.TempDir()
	s, err := datastore.Open(datastore.Config{Backend: datastore.BackendTaridx, Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("patches", "p1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("rdfs", "r1", []byte("y")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// One archive per namespace: two tars and two indexes, four inodes for
	// any number of keys.
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		names := []string{}
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("root entries = %v, want 4 (2 tars + 2 indexes)", names)
	}
}

func TestStoreInodeReduction(t *testing.T) {
	// The headline §5.2 property: N files, O(1) inodes.
	root := t.TempDir()
	s, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Put("bulk", fmt.Sprintf("file-%04d", i), []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("%d files occupy %d inodes, want 2", n, len(ents))
	}
	keys, err := s.Keys("bulk")
	if err != nil || len(keys) != n {
		t.Errorf("Keys = %d, %v", len(keys), err)
	}
}

func TestStoreInvalidNamespace(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ns := range []string{"", "a/b", "..", "."} {
		if err := s.Put(ns, "k", nil); err == nil {
			t.Errorf("Put in namespace %q succeeded", ns)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestStoreNamespaceAccessorAndPath(t *testing.T) {
	root := t.TempDir()
	s, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := s.archive("patches", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if a.path != filepath.Join(root, "patches.tar") {
		t.Errorf("path = %q", a.path)
	}
	// Store and archive views agree.
	got, err := s.Get("patches", "k")
	if err != nil || string(got) != "v" {
		t.Errorf("Get via store = %q, %v", got, err)
	}
	if st := a.Stats(); st.Keys != 1 {
		t.Errorf("Stats.Keys = %d", st.Keys)
	}
	// An invalid namespace is refused on the archive path too.
	if _, err := s.archive("../evil", true); err == nil {
		t.Error("invalid namespace accepted")
	}
}
