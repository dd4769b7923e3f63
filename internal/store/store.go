// Package store is the disk tier of the result cache: a crash-safe,
// content-addressed store of canonical engine.Result values, one file
// per cache key, that survives what the in-memory LRU cannot — a
// process restart. A battschedd pointed at the same -cache-dir warm
// starts with every schedule it ever computed, so repeated-query fleet
// traffic (the distributed-serving tier this store is the storage unit
// for) pays for each Rakhmatov–Vrudhula search once per disk, not once
// per process lifetime.
//
// Layout and guarantees:
//
//   - One file per key under a two-level fanout: <dir>/<key[:2]>/<key>.res,
//     where keys are the lowercase-hex content hashes of cache.Key.
//   - Entries are a versioned binary encoding of engine.Result behind a
//     magic + version + length + CRC-32 header (see codec.go). Torn,
//     truncated, bit-rotted or wrong-version files are detected before
//     any payload byte is trusted and degrade to a miss — Get deletes
//     them, Open's scan skips and deletes them — never a wrong result.
//   - Writes are atomic: encode to a tmp file in the same directory,
//     fsync, rename. A crash mid-write leaves a tmp file the next Open
//     sweeps away; it can never leave a half-written entry under a real
//     key.
//   - A byte budget (MaxBytes) is enforced by oldest-mtime eviction; a
//     hit refreshes its entry's mtime, so eviction approximates LRU.
//
// The store is safe for concurrent use. File reads and writes happen
// outside the store's lock (the lock guards only the size-accounting
// index), so a slow disk never serializes readers — and the cache layer
// above (cache.Cache) consults the store strictly outside its own LRU
// lock, from inside the single-flight leader, so one disk read per
// missed key and zero lock-held IO.
//
//battlint:deterministic
//battlint:fsseam
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
)

// DefaultMaxBytes bounds a store opened with maxBytes 0: 1 GiB holds
// hundreds of thousands of typical entries (a schedule is ~a few
// hundred bytes), far past the in-memory LRU, without surprising a
// host's disk.
const DefaultMaxBytes = 1 << 30

// Store is the disk-backed result store. Create it with Open; the zero
// value is not ready.
type Store struct {
	dir      string
	maxBytes int64
	fsys     fault.FS

	// mu guards the index and size accounting — never file IO.
	mu    sync.Mutex
	size  int64
	index map[string]entryInfo

	hits      atomic.Uint64
	misses    atomic.Uint64
	errs      atomic.Uint64
	evictions atomic.Uint64
}

// entryInfo is the index's view of one on-disk entry.
type entryInfo struct {
	size  int64
	mtime time.Time
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	// Hits counts Gets answered from a valid entry.
	Hits uint64 `json:"hits"`
	// Misses counts Gets that found no entry (including entries that
	// failed validation and were discarded — those also count Errors).
	Misses uint64 `json:"misses"`
	// Errors counts corrupt entries discarded and IO failures (a failed
	// write, an unreadable file). The store degrades every one of them
	// to a miss or a skipped write; this counter is how operators see it
	// happening.
	Errors uint64 `json:"errors"`
	// Evictions counts entries removed by the byte budget.
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes are the current population.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// ScanReport summarizes Open's warm-start scan — what a restarted
// daemon logs so operators can see the cache survive.
type ScanReport struct {
	// Entries and Bytes are the valid population found on disk.
	Entries int
	Bytes   int64
	// Corrupt counts files that failed validation and were deleted:
	// torn writes, truncated files, checksum mismatches, wrong versions.
	Corrupt int
	// Evicted counts valid entries dropped because the surviving
	// population exceeded the byte budget (e.g. the store was reopened
	// with a smaller bound).
	Evicted int
	// TmpSwept counts crash leftovers — tmp files a Put never got to
	// rename — deleted by the scan. A crash between CreateTemp and
	// Rename leaves exactly one of these; it is never served.
	TmpSwept int
}

// Open opens (creating if needed) the store rooted at dir, scans it to
// rebuild the size index, deletes tmp-file leftovers and corrupt
// entries, and enforces the byte budget over what survived. maxBytes 0
// means DefaultMaxBytes; negative means unbounded.
func Open(dir string, maxBytes int64) (*Store, ScanReport, error) {
	return OpenFS(dir, maxBytes, fault.OS)
}

// OpenFS is Open against an explicit filesystem seam — the injection
// point for fault testing. Production callers use Open (the real
// filesystem); chaos harnesses pass a *fault.Injector.
func OpenFS(dir string, maxBytes int64, fsys fault.FS) (*Store, ScanReport, error) {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return nil, ScanReport{}, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		fsys:     fsys,
		index:    make(map[string]entryInfo),
	}
	rep, err := s.scan()
	if err != nil {
		return nil, ScanReport{}, err
	}
	s.mu.Lock()
	rep.Evicted = s.evictLocked()
	s.mu.Unlock()
	return s, rep, nil
}

// scan walks the fanout tree validating every entry: valid ones enter
// the index, everything else (corrupt entries, tmp leftovers, foreign
// files) is deleted. Validation reads every byte once — entries are
// small, and a warm start that trusted unvalidated sizes would report a
// population it might not be able to serve.
func (s *Store) scan() (ScanReport, error) {
	var rep ScanReport
	subdirs, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return rep, fmt.Errorf("store: scan: %w", err)
	}
	for _, sub := range subdirs {
		if !sub.IsDir() || !validFanout(sub.Name()) {
			continue // not ours; leave it alone
		}
		files, err := s.fsys.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			return rep, fmt.Errorf("store: scan: %w", err)
		}
		for _, f := range files {
			path := filepath.Join(s.dir, sub.Name(), f.Name())
			key, ok := strings.CutSuffix(f.Name(), entrySuffix)
			if f.IsDir() || !ok || !validKey(key) || key[:2] != sub.Name() {
				// Tmp leftovers from a crash mid-Put, misplaced or
				// foreign files: sweep them so they cannot accumulate.
				if strings.HasSuffix(f.Name(), ".tmp") {
					rep.TmpSwept++
				}
				s.fsys.Remove(path)
				continue
			}
			data, err := s.fsys.ReadFile(path)
			if err != nil {
				rep.Corrupt++
				s.fsys.Remove(path)
				continue
			}
			if _, err := decodeEntry(data); err != nil {
				rep.Corrupt++
				s.fsys.Remove(path)
				continue
			}
			info, err := f.Info()
			mtime := time.Now()
			if err == nil {
				mtime = info.ModTime()
			}
			s.index[key] = entryInfo{size: int64(len(data)), mtime: mtime}
			s.size += int64(len(data))
			rep.Entries++
			rep.Bytes += int64(len(data))
		}
	}
	return rep, nil
}

// entrySuffix names entry files; anything else in a fanout directory is
// not an entry.
const entrySuffix = ".res"

// validKey reports whether key is usable as a content address: 4–128
// lowercase-hex characters (cache.Key produces 64). Anything else is
// refused — keys become file names, so this is also the path-traversal
// guard for embedders that mint their own keys.
func validKey(key string) bool {
	if len(key) < 4 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// validFanout reports whether name is a two-hex-char fanout directory.
func validFanout(name string) bool {
	return len(name) == 2 && validKey(name+"00")
}

// path maps a key to its entry file.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+entrySuffix)
}

// Get returns the stored result for key, whether a valid entry was
// found, and the disk error if one occurred: Read, then Touch on a hit.
func (s *Store) Get(key string) (engine.Result, bool, error) {
	res, ok, err := s.Read(key)
	if ok {
		s.Touch(key)
	}
	return res, ok, err
}

// Read is Get without the recency refresh, for a caller that defers
// Touch off its response path. A clean miss (no entry) is (zero, false,
// nil); an IO failure or a corrupt entry is (zero, false, err) — the
// error return is what the cache's disk circuit breaker counts. A
// corrupt entry is deleted and reported as a miss (and counted in
// Errors). The returned result aliases nothing — every Read decodes a
// fresh copy.
func (s *Store) Read(key string) (engine.Result, bool, error) {
	if !validKey(key) {
		s.misses.Add(1)
		return engine.Result{}, false, nil
	}
	path := s.path(key)
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		if errors.Is(err, fs.ErrNotExist) {
			return engine.Result{}, false, nil
		}
		s.errs.Add(1)
		return engine.Result{}, false, fmt.Errorf("store: %w", err)
	}
	res, err := decodeEntry(data)
	if err != nil {
		s.discard(key, path)
		s.errs.Add(1)
		s.misses.Add(1)
		return engine.Result{}, false, fmt.Errorf("store: %w", err)
	}
	s.hits.Add(1)
	return res, true, nil
}

// Touch refreshes key's mtime, on disk and in the index, so the
// byte-budget eviction approximates LRU. It is best-effort: a failed
// Chtimes or a key no longer stored changes nothing else.
func (s *Store) Touch(key string) {
	if !validKey(key) {
		return
	}
	now := time.Now()
	s.fsys.Chtimes(s.path(key), now, now) // best-effort recency for eviction
	s.mu.Lock()
	if e, ok := s.index[key]; ok {
		e.mtime = now
		s.index[key] = e
	}
	s.mu.Unlock()
}

// discard removes a corrupt entry file and its index accounting.
func (s *Store) discard(key, path string) {
	s.fsys.Remove(path)
	s.mu.Lock()
	if e, ok := s.index[key]; ok {
		s.size -= e.size
		delete(s.index, key)
	}
	s.mu.Unlock()
}

// Put stores the canonical result under key, atomically: the entry is
// fully written and fsynced to a tmp file in the target directory, then
// renamed into place, and the directory is fsynced so the rename itself
// survives a power cut — a crash at any instant leaves either the old
// entry, the new entry, or a tmp file the next Open sweeps — never a
// torn entry. An entry larger than the whole byte budget is skipped
// (storing it would evict everything else for a single key). Errors are
// counted in Stats.Errors and returned; callers that treat the disk
// tier as best-effort (the cache does) may ignore them.
func (s *Store) Put(key string, res engine.Result) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	data := encodeEntry(res)
	if s.maxBytes > 0 && int64(len(data)) > s.maxBytes {
		return nil
	}
	dir := filepath.Join(s.dir, key[:2])
	if err := s.fsys.MkdirAll(dir, 0o777); err != nil {
		s.errs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := s.fsys.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		s.errs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fsys.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		s.fsys.Remove(tmp.Name())
		s.errs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	// The rename returned, but POSIX only promises it survives a power
	// cut after the parent directory is fsynced. The entry is serveable
	// either way (it is in this boot's page cache), so index it — but a
	// failed directory sync is still a counted, reported disk error.
	syncErr := s.fsys.SyncDir(dir)
	if syncErr != nil {
		s.errs.Add(1)
		syncErr = fmt.Errorf("store: %w", syncErr)
	}

	s.mu.Lock()
	if old, ok := s.index[key]; ok {
		s.size -= old.size
	}
	s.index[key] = entryInfo{size: int64(len(data)), mtime: time.Now()}
	s.size += int64(len(data))
	evicted := s.evictLocked()
	s.mu.Unlock()
	s.evictions.Add(uint64(evicted))
	return syncErr
}

// evictLocked deletes oldest-mtime entries until the population fits
// the byte budget, returning how many were dropped. Caller holds mu.
// Ties (equal mtimes — coarse filesystems produce them) break on the
// key so eviction order is deterministic. Each fanout directory an
// eviction touched is fsynced once, so removals are as durable as the
// writes; sync failures here are counted but cannot fail the eviction
// (the budget must hold regardless).
func (s *Store) evictLocked() int {
	if s.maxBytes <= 0 || s.size <= s.maxBytes {
		return 0
	}
	type aged struct {
		key  string
		info entryInfo
	}
	entries := make([]aged, 0, len(s.index))
	//battlint:allow detrange collected pairs are fully sorted below (mtime, then key) before any is acted on
	for k, e := range s.index {
		entries = append(entries, aged{k, e})
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].info.mtime.Equal(entries[j].info.mtime) {
			return entries[i].info.mtime.Before(entries[j].info.mtime)
		}
		return entries[i].key < entries[j].key
	})
	n := 0
	touched := make(map[string]bool)
	for _, e := range entries {
		if s.size <= s.maxBytes {
			break
		}
		if err := s.fsys.Remove(s.path(e.key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.errs.Add(1)
			// ENOSPC-class failures can afflict removal too (dirent
			// updates allocate on some filesystems). Drop the entry from
			// the index regardless: the budget is an accounting bound,
			// and a file the index forgot is re-swept by the next Open.
		}
		touched[filepath.Dir(s.path(e.key))] = true
		s.size -= e.info.size
		delete(s.index, e.key)
		n++
	}
	//battlint:allow detrange fanout dirs are fsynced idempotently; order cannot matter
	for dir := range touched {
		if err := s.fsys.SyncDir(dir); err != nil {
			s.errs.Add(1)
		}
	}
	return n
}

// Len returns the current entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the current stored byte total.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.index), s.size
	s.mu.Unlock()
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Errors:    s.errs.Load(),
		Evictions: s.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}
