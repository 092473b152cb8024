// The result store: one campaign directory holding results.jsonl (one
// Record per line, appended in the deterministic cell order the engine
// resolves them) and manifest.json (campaign summary, rewritten atomically
// after each batch). The JSONL file is the resume point: a killed campaign
// leaves a valid prefix — OpenStore truncates at the first incomplete or
// corrupt line — and a resumed run appends exactly the missing suffix, so
// the merged file is byte-identical to an uninterrupted run.

package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Store filenames within a campaign directory.
const (
	resultsFile  = "results.jsonl"
	manifestFile = "manifest.json"
)

// Store is an append-only JSONL record store with an in-memory index.
type Store struct {
	dir string

	mu    sync.Mutex
	f     *os.File // nil for read-only stores
	recs  map[string]*Record
	order []string
}

// OpenStore opens (creating if needed) a campaign directory for appending.
// Existing records are indexed; a trailing incomplete or corrupt line —
// the signature of a killed run — is truncated away so the file is again a
// valid prefix to append to.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: create store dir: %w", err)
	}
	path := filepath.Join(dir, resultsFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	s := &Store{dir: dir, f: f, recs: map[string]*Record{}}
	valid, err := s.load(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: truncate partial store line: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: seek store: %w", err)
	}
	return s, nil
}

// LoadStore opens an existing campaign directory read-only (for status and
// export). Appending to a loaded store is an error.
func LoadStore(dir string) (*Store, error) {
	path := filepath.Join(dir, resultsFile)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	defer f.Close()
	s := &Store{dir: dir, recs: map[string]*Record{}}
	if _, err := s.load(f); err != nil {
		return nil, err
	}
	return s, nil
}

// load indexes every complete record line and returns the byte offset just
// past the last complete line. A line only counts as complete when it is
// newline-terminated AND parses as a keyed record: a torn tail that happens
// to end exactly at a record's closing brace (no newline) must not be
// counted, or the truncate-to-valid on reopen would extend the file and the
// next append would fuse two records onto one corrupt line.
func (s *Store) load(f *os.File) (int64, error) {
	r := bufio.NewReaderSize(f, 1<<16)
	var valid int64
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// Bytes after the last newline are a torn tail — even if they
			// parse — and are truncated away by the caller.
			return valid, nil
		}
		if err != nil {
			return 0, fmt.Errorf("campaign: scan store: %w", err)
		}
		var rec Record
		if jerr := json.Unmarshal(line, &rec); jerr != nil || rec.Key == "" {
			// A corrupt or half-written line: everything before it stands.
			return valid, nil
		}
		if _, ok := s.recs[rec.Key]; !ok {
			rc := rec
			s.recs[rec.Key] = &rc
			s.order = append(s.order, rec.Key)
		}
		valid += int64(len(line))
	}
}

// Get returns the stored record for a cell key, if present.
func (s *Store) Get(key string) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[key]
	return r, ok
}

// Append writes a record as one JSONL line and indexes it. Records already
// present are ignored, keeping the file free of duplicates.
func (s *Store) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("campaign: store %s opened read-only", s.dir)
	}
	if _, ok := s.recs[rec.Key]; ok {
		return nil
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rec); err != nil {
		return fmt.Errorf("campaign: encode record: %w", err)
	}
	if _, err := s.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("campaign: append record: %w", err)
	}
	s.recs[rec.Key] = rec
	s.order = append(s.order, rec.Key)
	return nil
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Keys returns the stored cell keys in append order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Records returns the stored records in append order.
func (s *Store) Records() []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Record, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.recs[k])
	}
	return out
}

// Close syncs and closes the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("campaign: sync store: %w", err)
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Manifest summarises a campaign run: identity, progress, and provenance.
type Manifest struct {
	// Name is the campaign's human label (e.g. "figures", "smoke").
	Name string `json:"name"`
	// CampaignHash is the SHA-256 over the store's cell keys in append
	// order — two stores with the same hash hold byte-identical results.
	CampaignHash string `json:"campaignHash"`
	// Cells is the total the campaign planned; Done is how many are in the
	// store.
	Cells int `json:"cells"`
	Done  int `json:"done"`
	// Executed/CacheHits/StoreHits/MemoHits break down where the last
	// batch's results came from.
	Executed  int `json:"executed"`
	CacheHits int `json:"cacheHits"`
	StoreHits int `json:"storeHits"`
	MemoHits  int `json:"memoHits"`
	// GoVersion and WallSeconds record provenance and cost.
	GoVersion   string  `json:"goVersion"`
	WallSeconds float64 `json:"wallSeconds"`
}

// WriteManifest atomically replaces the campaign manifest.
func (s *Store) WriteManifest(m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: encode manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, manifestFile+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("campaign: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestFile)); err != nil {
		return fmt.Errorf("campaign: replace manifest: %w", err)
	}
	return nil
}

// campaignHash fingerprints a store's content: the SHA-256 over its cell
// keys in append order. Keys are content hashes of full cell configs and
// execution is deterministic, so equal campaign hashes mean byte-identical
// results files.
func campaignHash(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ReadManifest reads a campaign directory's manifest.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("campaign: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("campaign: parse manifest: %w", err)
	}
	return m, nil
}
