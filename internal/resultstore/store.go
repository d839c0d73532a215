package resultstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// DefaultBatchSize is the number of appended rows buffered before an
// automatic flush. Batching amortizes the write+fsync cost across a sweep's
// many per-size verdicts; Flush/Close force the tail out.
const DefaultBatchSize = 64

// ErrClosed reports an operation on a store after Close.
var ErrClosed = errors.New("resultstore: store is closed")

// counters is the store's observability surface. Fields are bumped by
// searches on many goroutines while /metrics reads concurrently, so access
// is sync/atomic only — the same contract calculonvet's atomiccounter
// analyzer enforces on search.Progress.
//
//calculonvet:counter
type counters struct {
	hits    atomic.Int64
	misses  atomic.Int64
	appends atomic.Int64
	flushes atomic.Int64
}

// Stats is one observation of a store's activity.
type Stats struct {
	// Rows is the number of distinct (kind, key) pairs currently indexed,
	// training and serving rows alike.
	Rows int
	// Loaded counts the rows read back at Open (before dedup); Stale the
	// subset skipped as stale: an outdated space version of its kind
	// (StrategySpaceVersion for training rows, ServingSpaceVersion for
	// serving rows) or a kind this binary does not know; RecoveredBytes the
	// truncated final-line bytes dropped at Open.
	Loaded         int
	Stale          int
	RecoveredBytes int
	// Hits/Misses count lookups; Appends committed rows; Flushes batch
	// writes (each followed by one fsync).
	Hits    int64
	Misses  int64
	Appends int64
	Flushes int64
}

// Store is an append-only JSONL file of search verdicts with an in-memory
// dedup index. One process owns a store file at a time (the daemon shares a
// single Store across all jobs); methods are safe for concurrent use.
type Store struct {
	ctr counters

	mu   sync.Mutex
	f    *os.File
	path string
	// index serves the last row appended per (kind, key): equal keys of
	// different kinds are different searches.
	index   map[rowKey]Row
	pending []Row
	batch   int
	closed  bool
	// load-time observations, fixed after Open.
	loaded         int
	stale          int
	recoveredBytes int
}

// Open reads an existing store (creating an empty one if absent), rebuilds
// the dedup index, and leaves the file positioned for appends.
//
// Recovery semantics, in order of severity:
//   - A final line without a terminating newline is a crash artifact: the
//     flush that wrote it never completed. If the fragment still parses as a
//     complete row it is preserved (rewritten with its newline and synced);
//     otherwise it is dropped and the file truncated back to the last
//     committed row. Either way every committed row survives.
//   - A newline-terminated row that fails to decode, carries an unknown
//     schema version, has an empty key, or lacks its kind's payload is
//     corruption, not a crash shape — committed rows are written and
//     fsynced whole — so Open fails loudly rather than serving a file it
//     cannot vouch for.
//   - A row with an outdated strategy-space version is stale, not corrupt:
//     it is counted and skipped, which is how a version bump invalidates
//     every previously cached verdict.
//
// Duplicate keys resolve last-write-wins, matching append order.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		f:     f,
		path:  path,
		index: make(map[rowKey]Row),
		batch: DefaultBatchSize,
	}
	if err := s.load(); err != nil {
		// Close cannot mask the load error: the file was only read.
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

// load replays the JSONL file into the index and settles the write offset,
// applying the recovery semantics documented on Open.
func (s *Store) load() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("resultstore: %s: %w", s.path, err)
	}
	off := 0
	var tail []byte // unterminated final-line fragment, if any
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			tail = data[off:]
			break
		}
		line := data[off : off+nl]
		if len(bytes.TrimSpace(line)) != 0 {
			row, err := decodeRow(line)
			if err != nil {
				return fmt.Errorf("resultstore: %s: corrupt row at byte %d: %w", s.path, off, err)
			}
			s.loaded++
			if row.stale() {
				s.stale++
			} else {
				s.indexRow(row)
			}
		}
		off += nl + 1
	}
	if tail == nil {
		return nil
	}
	// Crash recovery: drop the uncommitted fragment, then salvage it if it
	// happens to be a complete row that only lost its newline.
	if err := s.f.Truncate(int64(off)); err != nil {
		return fmt.Errorf("resultstore: %s: truncating partial row: %w", s.path, err)
	}
	if _, err := s.f.Seek(int64(off), io.SeekStart); err != nil {
		return fmt.Errorf("resultstore: %s: %w", s.path, err)
	}
	row, err := decodeRow(tail)
	if err != nil || row.stale() {
		s.recoveredBytes = len(tail)
		return nil
	}
	if _, err := s.f.Write(append(append([]byte(nil), tail...), '\n')); err != nil {
		return fmt.Errorf("resultstore: %s: rewriting salvaged row: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("resultstore: %s: %w", s.path, err)
	}
	s.loaded++
	s.indexRow(row)
	return nil
}

// rowKey is a row's identity in the index.
type rowKey struct{ kind, key string }

// indexRow files the row under its kind and key. Caller holds mu (or is
// single-threaded load) and has already screened staleness; decodeRow and
// Append guarantee the row carries its kind's payload.
func (s *Store) indexRow(row Row) {
	s.index[rowKey{row.Kind, row.Key}] = row
}

// decodeRow parses one JSONL line into a Row, enforcing the envelope
// invariants (known schema version, Row.check). It is the surface
// FuzzResultStoreDecode hammers: arbitrary bytes must error, never panic.
func decodeRow(line []byte) (Row, error) {
	var row Row
	if err := json.Unmarshal(line, &row); err != nil {
		return row, err
	}
	if row.Schema != SchemaVersion {
		return row, fmt.Errorf("unknown schema version %d (want %d)", row.Schema, SchemaVersion)
	}
	return row, row.check()
}

// Path returns the backing file's path.
func (s *Store) Path() string { return s.path }

// lookup returns the row of the given kind stored under key, if any, and
// counts the hit or miss; both kinds share the counters, since the stats
// surface observes store traffic, not per-kind traffic.
func (s *Store) lookup(kind, key string) (Row, bool) {
	s.mu.Lock()
	row, ok := s.index[rowKey{kind, key}]
	s.mu.Unlock()
	if ok {
		s.ctr.hits.Add(1)
	} else {
		s.ctr.misses.Add(1)
	}
	return row, ok
}

// Append records a row: the index serves it immediately (last write wins)
// and the row joins the pending batch, flushed to disk once the batch fills.
// Call Flush or Close to force the tail out; rows are only crash-durable
// after their batch has flushed (each flush ends in fsync).
func (s *Store) Append(row Row) error {
	if err := row.check(); err != nil {
		return fmt.Errorf("resultstore: refusing to append: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.indexRow(row)
	s.pending = append(s.pending, row)
	s.ctr.appends.Add(1)
	if len(s.pending) >= s.batch {
		return s.flushLocked()
	}
	return nil
}

// Flush commits the pending batch: one buffered write of whole JSONL lines,
// then fsync, so a crash can truncate at most the final line of the final
// write — exactly the shape Open recovers from.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

// flushLocked writes and syncs the pending rows. Caller holds mu.
func (s *Store) flushLocked() error {
	if len(s.pending) == 0 {
		return nil
	}
	var buf bytes.Buffer
	for _, row := range s.pending {
		data, err := json.Marshal(row)
		if err != nil {
			return fmt.Errorf("resultstore: encoding row %s: %w", row.Key, err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	if _, err := s.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("resultstore: %s: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("resultstore: %s: %w", s.path, err)
	}
	s.pending = s.pending[:0]
	s.ctr.flushes.Add(1)
	return nil
}

// Close flushes the pending batch and releases the file. The store is
// unusable afterwards; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	flushErr := s.flushLocked()
	s.closed = true
	if err := s.f.Close(); err != nil && flushErr == nil {
		flushErr = fmt.Errorf("resultstore: %s: %w", s.path, err)
	}
	return flushErr
}

// Stats snapshots the store's activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	rows, loaded, stale, recovered := len(s.index), s.loaded, s.stale, s.recoveredBytes
	s.mu.Unlock()
	return Stats{
		Rows:           rows,
		Loaded:         loaded,
		Stale:          stale,
		RecoveredBytes: recovered,
		Hits:           s.ctr.hits.Load(),
		Misses:         s.ctr.misses.Load(),
		Appends:        s.ctr.appends.Load(),
		Flushes:        s.ctr.flushes.Load(),
	}
}
