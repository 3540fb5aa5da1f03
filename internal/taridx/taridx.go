// Package taridx implements indexed tar archives, mummi-go's equivalent of
// the paper's pytaridx (§4.2, §5.2). Collecting millions of small files into
// archives is the paper's answer to inode pressure on the parallel
// filesystem: the campaign packed 1,034,232,900 files into 114,552 archives
// — a 9000× inode reduction — while retaining efficient random access
// through a complementary index file.
//
// Archives are standard tar files (USTAR), portable and readable by the
// commonly-available decoder. Writes are append-only, which makes the format
// robust against failures: a key is never updated in place — re-inserting
// the same key appends a new entry and the index takes the latest value as
// correct. "Deleting" a key only removes it from the index (the namespace),
// never from the archive. The sidecar index (.tari) is an append-only
// JSON-lines journal and can always be rebuilt by scanning the tar itself.
package taridx

import (
	"archive/tar"
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// IndexSuffix is appended to the archive path to name its index journal.
const IndexSuffix = ".tari"

const blockSize = 512

// ErrNotFound is returned when a key is not in the archive's index.
var ErrNotFound = errors.New("taridx: key not found")

// entry locates one value inside the tar file.
type entry struct {
	Off  int64 `json:"o"` // offset of the data section
	Size int64 `json:"n"`
}

// indexRecord is one line of the .tari journal.
type indexRecord struct {
	Key  string `json:"k"`
	Off  int64  `json:"o,omitempty"`
	Size int64  `json:"n"` // present (possibly 0) on inserts
	Del  bool   `json:"d,omitempty"`
}

// Stats reports archive counters used by the §5.2 throughput experiment.
type Stats struct {
	Keys       int   // live keys in the index
	Appends    int64 // total entries ever appended (includes reinserts)
	Reads      int64 // Get calls served
	BytesRead  int64 // data bytes returned by Get
	ArchiveLen int64 // current tar file size in bytes
}

// Archive is one indexed tar file. All methods are safe for concurrent use.
type Archive struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	idxF  *os.File
	idxW  *bufio.Writer
	index map[string]entry
	end   int64 // logical end of data: where the next header goes
	stats Stats
}

// Open opens (creating if absent) the archive at path and its index.
// If the index journal is missing or unreadable but the tar exists, the
// index is rebuilt by scanning the tar — the recovery path after a crash
// that lost the journal.
func Open(path string) (*Archive, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("taridx: %w", err)
	}
	a := &Archive{path: path, f: f, index: make(map[string]entry)}

	loaded, idxErr := a.loadIndex()
	if idxErr != nil || !loaded {
		// Journal absent or damaged: rebuild from the tar, then rewrite a
		// fresh journal reflecting what we found.
		if err := a.rebuildFromTar(); err != nil {
			return nil, errors.Join(err, f.Close())
		}
		if err := a.rewriteIndex(); err != nil {
			return nil, errors.Join(err, f.Close())
		}
	} else if err := a.openIndexForAppend(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return a, nil
}

// loadIndex replays the journal. Returns (false, nil) when no journal exists.
// A torn final line (crash mid-append) is tolerated: replay stops there.
func (a *Archive) loadIndex() (bool, error) {
	idx, err := os.Open(a.path + IndexSuffix)
	if errors.Is(err, os.ErrNotExist) {
		// No journal. If the tar is empty too, we are a fresh archive.
		st, err := a.f.Stat()
		if err != nil {
			return false, err
		}
		if st.Size() == 0 {
			a.end = 0
			return true, a.openIndexForAppend()
		}
		return false, nil
	}
	if err != nil {
		return false, err
	}
	//lint:allow errdiscipline -- read-side close of the journal; scan errors already surfaced
	defer idx.Close()
	sc := bufio.NewScanner(idx)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	maxEnd := int64(0)
	for sc.Scan() {
		var rec indexRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // torn write: trust what replayed so far
		}
		if rec.Del {
			delete(a.index, rec.Key)
			continue
		}
		a.index[rec.Key] = entry{Off: rec.Off, Size: rec.Size}
		if e := rec.Off + padded(rec.Size); e > maxEnd {
			maxEnd = e
		}
	}
	a.end = maxEnd
	// Sanity: the tar must be at least as long as the index claims;
	// otherwise the journal is stale/corrupt and we rebuild.
	st, err := a.f.Stat()
	if err != nil {
		return false, err
	}
	if st.Size() < a.end {
		a.index = make(map[string]entry)
		a.end = 0
		return false, nil
	}
	return true, nil
}

func (a *Archive) openIndexForAppend() error {
	idxF, err := os.OpenFile(a.path+IndexSuffix, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("taridx: %w", err)
	}
	a.idxF = idxF
	a.idxW = bufio.NewWriter(idxF)
	return nil
}

// rebuildFromTar scans the tar sequentially, reconstructing the index.
// A truncated trailing entry (crash mid-append) is dropped.
func (a *Archive) rebuildFromTar() error {
	if _, err := a.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	cr := &countingReader{r: bufio.NewReader(a.f)}
	tr := tar.NewReader(cr)
	a.index = make(map[string]entry)
	a.end = 0
	for {
		hdr, err := tr.Next()
		if err != nil {
			break // io.EOF at trailer or truncation: stop trusting further
		}
		dataOff := cr.n
		// Verify the data section is fully present before admitting it.
		if _, err := io.Copy(io.Discard, tr); err != nil {
			break
		}
		a.index[hdr.Name] = entry{Off: dataOff, Size: hdr.Size}
		a.end = dataOff + padded(hdr.Size)
	}
	return nil
}

// rewriteIndex replaces the journal with the current in-memory index.
func (a *Archive) rewriteIndex() error {
	tmp := a.path + IndexSuffix + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for k, e := range a.index {
		if err := enc.Encode(indexRecord{Key: k, Off: e.Off, Size: e.Size}); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, a.path+IndexSuffix); err != nil {
		return err
	}
	return a.openIndexForAppend()
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func padded(size int64) int64 {
	if r := size % blockSize; r != 0 {
		return size + blockSize - r
	}
	return size
}

// validateKey enforces USTAR-representable names so that entry offsets stay
// deterministic (single 512-byte header block, no PAX extension records).
func validateKey(key string) error {
	if key == "" || len(key) > 100 {
		return fmt.Errorf("taridx: key %q must be 1–100 bytes", key)
	}
	for i := 0; i < len(key); i++ {
		if key[i] < 0x20 || key[i] == 0x7f {
			return fmt.Errorf("taridx: key %q contains control characters", key)
		}
	}
	return nil
}

// Put appends data under key. The archive remains a valid tar file after
// every Put (a fresh end-of-archive trailer is written each time).
func (a *Archive) Put(key string, data []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return errors.New("taridx: archive closed")
	}
	if _, err := a.f.Seek(a.end, io.SeekStart); err != nil {
		return err
	}
	tw := tar.NewWriter(a.f)
	hdr := &tar.Header{
		Name:     key,
		Size:     int64(len(data)),
		Mode:     0o644,
		ModTime:  time.Now().Truncate(time.Second),
		Typeflag: tar.TypeReg,
		Format:   tar.FormatUSTAR,
	}
	if err := tw.WriteHeader(hdr); err != nil {
		return fmt.Errorf("taridx: %w", err)
	}
	if _, err := tw.Write(data); err != nil {
		return fmt.Errorf("taridx: %w", err)
	}
	// Close pads the final entry and writes the two-zero-block trailer,
	// keeping the file decodable by standard tar at all times. The next
	// append seeks back over the trailer.
	if err := tw.Close(); err != nil {
		return fmt.Errorf("taridx: %w", err)
	}
	dataOff := a.end + blockSize
	a.index[key] = entry{Off: dataOff, Size: int64(len(data))}
	a.end = dataOff + padded(int64(len(data)))
	a.stats.Appends++

	rec := indexRecord{Key: key, Off: dataOff, Size: int64(len(data))}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := a.idxW.Write(append(b, '\n')); err != nil {
		return err
	}
	return a.idxW.Flush()
}

// Get returns the latest value stored under key, via random access.
func (a *Archive) Get(key string) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil, errors.New("taridx: archive closed")
	}
	e, ok := a.index[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	buf := make([]byte, e.Size)
	if _, err := a.f.ReadAt(buf, e.Off); err != nil {
		return nil, fmt.Errorf("taridx: read %s: %w", key, err)
	}
	a.stats.Reads++
	a.stats.BytesRead += e.Size
	return buf, nil
}

// Delete removes key from the index only; the archived bytes remain (the
// append-only design never mutates the tar).
func (a *Archive) Delete(key string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.index[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	delete(a.index, key)
	b, err := json.Marshal(indexRecord{Key: key, Del: true})
	if err != nil {
		return err
	}
	if _, err := a.idxW.Write(append(b, '\n')); err != nil {
		return err
	}
	return a.idxW.Flush()
}

// Keys returns the live keys in sorted order.
func (a *Archive) Keys() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.index))
	for k := range a.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of live keys.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.index)
}

// Stats returns archive counters.
func (a *Archive) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.Keys = len(a.index)
	if st, err := a.f.Stat(); err == nil {
		s.ArchiveLen = st.Size()
	}
	return s
}

// Close flushes the index and closes both files.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	var first error
	if a.idxW != nil {
		if err := a.idxW.Flush(); err != nil && first == nil {
			first = err
		}
	}
	if a.idxF != nil {
		if err := a.idxF.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := a.f.Close(); err != nil && first == nil {
		first = err
	}
	a.f, a.idxF, a.idxW = nil, nil, nil
	return first
}
