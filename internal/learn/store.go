package learn

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/automata"
	"repro/internal/jsonlog"
)

// This file implements the persistent half of incremental learning: an
// on-disk, versioned membership-query log plus a model snapshot, shared by
// every run that names the same store key. A CachedOracle attached to a
// Store (UseStore) starts with every logged answer pre-seeded in its prefix
// tree and appends every new live answer, so relearning a target that has
// not changed costs only the queries the equivalence search insists on
// asking live — and a target that has changed is re-queried only where the
// repair machinery proves the log stale. See docs/REGRESSION.md.

// storeFormat and storeVersion identify the query-log format. A log whose
// header names a different format or a newer version is not read (the
// entries are dropped and the file is rewritten), so a downgraded binary
// can never misinterpret a future log as answers.
const (
	storeFormat  = "prognosis-query-log"
	storeVersion = 1
)

// storeEntry is one logged membership query. Entries replay in file order
// with clobber semantics (a later entry for the same word wins), which is
// how CachedOracle.Refresh repairs persist: the corrected answer is simply
// appended and shadows the poisoned one on every future load.
type storeEntry struct {
	In  []string `json:"in"`
	Out []string `json:"out"`
}

// stores deduplicates open Stores by log path: concurrent opens of the
// same key — e.g. a campaign fanning one target across worker counts,
// which deliberately share a store key — get one refcounted instance, so
// two file handles can never write at overlapping offsets or truncate a
// sibling's live appends during load.
var (
	storesMu sync.Mutex
	stores   = map[string]*Store{}
)

// Store is the on-disk query log + model snapshot of one (target,
// configuration) pair: `<key>.log` holds the JSONL membership-query log,
// `<key>.model.json` the last successfully learned hypothesis in the
// unified automata JSON codec. Append and Reset are safe for concurrent
// use; a load tolerates a truncated or corrupted tail (the valid prefix
// survives, the tail is discarded), so a run killed mid-append never
// poisons the next one. The log file is opened in append mode, so even an
// unrelated process sharing the file interleaves whole lines rather than
// overwriting; in-process sharers go further and share one instance (see
// stores).
type Store struct {
	mu      sync.Mutex
	f       *os.File
	id      string // registry key (absolute log path)
	refs    int
	model   string
	entries []storeEntry // every logged entry: read at open, grown by Append
	appendE error        // first append failure, reported by Close
}

// OpenStore opens (or creates) the store for key inside dir, creating dir
// as needed. Opening a key that is already open in this process returns
// the same instance (closed when every opener has closed it). The
// existing query log is loaded and validated: a missing or foreign header
// discards the file, and a corrupted, truncated, or unterminated tail is
// truncated away while every complete entry before it is kept.
func OpenStore(dir, key string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("learn: store dir: %w", err)
	}
	path := filepath.Join(dir, key+".log")
	id, err := filepath.Abs(path)
	if err != nil {
		id = path
	}
	storesMu.Lock()
	defer storesMu.Unlock()
	if s, ok := stores[id]; ok {
		s.mu.Lock()
		s.refs++
		s.mu.Unlock()
		return s, nil
	}
	s := &Store{
		id:    id,
		refs:  1,
		model: filepath.Join(dir, key+".model.json"),
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("learn: open store: %w", err)
	}
	s.f = f
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	stores[id] = s
	return s, nil
}

// load recovers the log's valid prefix (jsonlog.Recover), resetting a
// file whose header is missing, foreign, or from a future version.
func (s *Store) load() error {
	d := entryDecoder{syms: map[string]string{}}
	ok, err := jsonlog.Recover(s.f, storeFormat, storeVersion, func(line []byte) bool {
		e, ok := d.decode(line)
		if !ok {
			return false
		}
		s.entries = append(s.entries, e)
		return true
	})
	if err != nil {
		return fmt.Errorf("learn: recover store: %w", err)
	}
	if !ok {
		return jsonlog.Reset(s.f, storeFormat, storeVersion)
	}
	return nil
}

// entryDecoder decodes log lines for one load. Append writes every line as
// json.Marshal(storeEntry), and for the symbols learning produces that is
// {"in":[...],"out":[...]} with plain printable-ASCII strings: decode reads
// exactly that shape by hand, which accepts a strict subset of what
// encoding/json does and decodes it the same way, and hands every other
// line (escapes, non-ASCII, null, whitespace, other key orders, foreign
// input) to json.Unmarshal.
type entryDecoder struct {
	syms    map[string]string // interned symbols: one string per distinct symbol per load
	scratch []string          // the line's symbols, In then Out
}

// decode returns the entry on line, or false when the line is not a
// complete entry (undecodable, or fewer outputs than inputs).
func (d *entryDecoder) decode(line []byte) (storeEntry, bool) {
	e, ok := d.fast(line)
	if !ok && json.Unmarshal(line, &e) != nil {
		return storeEntry{}, false
	}
	return e, len(e.Out) >= len(e.In)
}

// fast decodes the shape Append writes; false sends the line to
// json.Unmarshal. In and Out share one exact-size backing array.
func (d *entryDecoder) fast(line []byte) (storeEntry, bool) {
	d.scratch = d.scratch[:0]
	rest, ok := bytes.CutPrefix(bytes.TrimSuffix(line, []byte{'\n'}), []byte(`{"in":`))
	if ok {
		rest, ok = d.array(rest)
	}
	n := len(d.scratch)
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(`,"out":`))
	}
	if ok {
		rest, ok = d.array(rest)
	}
	if !ok || string(rest) != "}" {
		return storeEntry{}, false
	}
	syms := make([]string, len(d.scratch))
	copy(syms, d.scratch)
	return storeEntry{In: syms[:n:n], Out: syms[n:]}, true
}

// plain marks the bytes a symbol may hold on the hand-decoded path:
// printable ASCII other than the quote and the backslash, which
// encoding/json reads as themselves.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// array appends the strings of the array that opens b to d.scratch and
// returns what follows it; false when b does not open with an array of
// plain strings.
func (d *entryDecoder) array(b []byte) ([]byte, bool) {
	if len(b) < 2 || b[0] != '[' {
		return nil, false
	}
	if b[1] == ']' {
		return b[2:], true
	}
	for b = b[1:]; ; b = b[1:] {
		if len(b) == 0 || b[0] != '"' {
			return nil, false
		}
		end := 1
		for end < len(b) && plain[b[end]] {
			end++
		}
		if end == len(b) || b[end] != '"' {
			return nil, false
		}
		sym, ok := d.syms[string(b[1:end])]
		if !ok {
			sym = string(b[1:end])
			d.syms[sym] = sym
		}
		d.scratch = append(d.scratch, sym)
		b = b[end+1:]
		if len(b) > 0 && b[0] == ']' {
			return b[1:], true
		}
		if len(b) == 0 || b[0] != ',' {
			return nil, false
		}
	}
}

// Entries returns the number of logged queries (loaded plus appended).
func (s *Store) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Append logs one answered query. Each entry is written as a single Write
// of one complete line in append mode, so concurrent appenders interleave
// at line granularity and a crash loses at most the final partial line.
func (s *Store) Append(word, out []string) error {
	if len(out) < len(word) {
		return fmt.Errorf("%w: %d inputs, %d outputs", ErrIncompleteOutput, len(word), len(out))
	}
	line, err := jsonlog.Marshal(storeEntry{In: word, Out: out[:len(word)]})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		if s.appendE == nil {
			s.appendE = err
		}
		return err
	}
	s.entries = append(s.entries, storeEntry{In: word, Out: out[:len(word)]})
	return nil
}

// Reset discards every logged query (the model snapshot is untouched). It
// is the persistent half of CachedOracle.Clear: entries that survived a
// cache drop would resurrect exactly the answers the drop was repairing.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = nil
	return jsonlog.Reset(s.f, storeFormat, storeVersion)
}

// SaveModel snapshots the learned hypothesis atomically (write to a
// temporary file, then rename), so a reader never observes a half-written
// model. A snapshot that already holds the same bytes — every warm relearn
// of an unchanged target — is left as it is.
func (s *Store) SaveModel(m *automata.Mealy) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if old, err := os.ReadFile(s.model); err == nil && bytes.Equal(old, data) {
		return nil
	}
	tmp := s.model + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.model)
}

// LoadModel reads the model snapshot; (nil, nil) when none has been saved
// yet. A snapshot that fails to decode is treated as absent rather than
// fatal: the warm start degrades to a cold one.
func (s *Store) LoadModel() (*automata.Mealy, error) {
	data, err := os.ReadFile(s.model)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var m automata.Mealy
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil
	}
	return &m, nil
}

// Close releases one reference to the store; the log file closes when the
// last opener is done. It reports the first append failure the store
// swallowed mid-run (appends are best-effort during learning: a full disk
// must not abort a run whose answers are still good).
func (s *Store) Close() error {
	storesMu.Lock()
	s.mu.Lock()
	s.refs--
	last := s.refs == 0
	if last {
		delete(stores, s.id)
	}
	appendE := s.appendE
	s.mu.Unlock()
	storesMu.Unlock()
	var err error
	if last {
		err = s.f.Close()
	}
	if appendE != nil {
		return appendE
	}
	return err
}

// UseStore attaches st to the cached oracle: every entry logged in the
// store is pre-seeded into the prefix-tree cache (in log order, later
// entries shadowing earlier ones — see storeEntry), and from now on every
// answer the cache accepts from the live oracle is appended to the log.
// Refresh overwrites the logged path by appending the corrected answer;
// Clear resets the log alongside the cache. Attach before the first query.
func (c *CachedOracle) UseStore(st *Store) {
	st.mu.Lock()
	entries := st.entries
	st.mu.Unlock()
	for _, e := range entries {
		c.cache.refresh(e.In, e.Out)
	}
	c.store = st
}

// persist logs one accepted answer to the attached store, if any. Append
// failures are swallowed here (and surfaced by Store.Close): persistence
// is an accelerator, never a reason to fail a live query that succeeded.
func (c *CachedOracle) persist(word, out []string) {
	if c.store != nil && len(word) > 0 {
		_ = c.store.Append(word, out)
	}
}
