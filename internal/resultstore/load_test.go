package resultstore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"calculon/internal/serving"
)

// referenceOpen is Open with the replay it had before the rows were
// decoded on every core: one growing io.ReadAll, then one line at a time.
// FuzzStoreOpen holds Open to it.
func referenceOpen(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{f: f, path: path, index: make(map[rowKey]Row), batch: DefaultBatchSize}
	if err := s.referenceLoad(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) referenceLoad() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("resultstore: %s: %w", s.path, err)
	}
	off := 0
	var tail []byte
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

// maxFuzzLines bounds the committed lines of a FuzzStoreOpen file.
const maxFuzzLines = 256

// FuzzStoreOpen holds Open's parallel replay to referenceOpen on store
// files built from fuzzed choices: up to maxFuzzLines lines (many more than
// GOMAXPROCS), whose shapes cycle through plan — training and serving rows
// under eight shared keys, so duplicates are common, stale rows of both
// kinds, rows of an unknown kind and blank lines — with the lines at
// indices bad1 and bad2 corrupt, and an unterminated tail of one of five
// shapes. Both must give the same error text, the same Stats load fields,
// the same served rows and the same file bytes after Open.
func FuzzStoreOpen(f *testing.F) {
	none := uint16(0xffff)
	// Many rows, every plan shape, no tail.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 17, 26, 35}, uint16(200), none, none, uint8(0))
	// Duplicate keys, stale rows, unknown kinds and blank lines.
	f.Add([]byte{0, 8, 0, 12, 3, 11, 13, 14, 22, 30, 15}, uint16(40), none, none, uint8(0))
	// Two corrupt rows: the error names the first.
	f.Add([]byte{0, 9, 18, 3}, uint16(250), uint16(221), uint16(77), uint8(0))
	// A complete row that lost its newline is salvaged.
	f.Add([]byte{0, 9, 3}, uint16(300), none, none, uint8(1))
	// A cut row, a stale row and whitespace as the tail are dropped.
	f.Add([]byte{0, 9, 3}, uint16(300), none, none, uint8(2))
	f.Add([]byte{1, 4}, uint16(3), none, none, uint8(3))
	f.Add([]byte{6}, uint16(5), none, none, uint8(4))
	// Only a tail, and an empty file.
	f.Add([]byte{}, uint16(0), none, none, uint8(1))
	f.Add([]byte{}, uint16(0), none, none, uint8(0))

	f.Fuzz(func(t *testing.T, plan []byte, lines, bad1, bad2 uint16, tail uint8) {
		data := fuzzStoreFile(t, plan, int(lines)%maxFuzzLines, int(bad1), int(bad2), tail)
		path := filepath.Join(t.TempDir(), "store.jsonl")
		want := replay(t, path, data, referenceOpen)
		got := replay(t, path, data, Open)
		if got.err != want.err {
			t.Fatalf("Open error %q, reference %q", got.err, want.err)
		}
		if got.stats != want.stats {
			t.Fatalf("Open stats %+v, reference %+v", got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.index, want.index) {
			t.Fatalf("Open serves %d rows, reference %d, and they differ", len(got.index), len(want.index))
		}
		if !bytes.Equal(got.file, want.file) {
			t.Fatalf("file after Open has %d bytes, after the reference %d, and they differ", len(got.file), len(want.file))
		}
	})
}

// replayed is what one Open of a store file gave.
type replayed struct {
	err   string
	stats Stats
	index map[rowKey]Row
	file  []byte
}

// replay writes data to path, opens it with open and reports the outcome,
// the file's bytes after the open included.
func replay(t *testing.T, path string, data []byte, open func(string) (*Store, error)) (r replayed) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := open(path)
	if err != nil {
		r.err = err.Error()
	} else {
		s := st.Stats()
		r.stats = Stats{Rows: s.Rows, Loaded: s.Loaded, Stale: s.Stale, RecoveredBytes: s.RecoveredBytes}
		r.index = st.index
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if r.file, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return r
}

// fuzzStoreFile builds FuzzStoreOpen's file: n newline-terminated lines,
// line i corrupt if it is bad1 or bad2 and otherwise shaped by
// plan[i%len(plan)], then the unterminated tail tailSel picks.
func fuzzStoreFile(t *testing.T, plan []byte, n, bad1, bad2 int, tailSel uint8) []byte {
	t.Helper()
	var data []byte
	for i := 0; i < n; i++ {
		switch {
		case i == bad1 || i == bad2:
			data = append(data, corruptLine(t, i)...)
		case len(plan) == 0:
			data = append(data, mustMarshal(t, testRow(fmt.Sprintf("k%d", i%8), i+1))...)
		default:
			data = append(data, planLine(t, plan[i%len(plan)], i)...)
		}
		data = append(data, '\n')
	}
	good := mustMarshal(t, testRow("tail", n+1))
	switch tailSel % 5 {
	case 1: // a complete row that lost its newline: salvaged
		data = append(data, good...)
	case 2: // a row cut short: dropped
		data = append(data, good[:len(good)/2]...)
	case 3: // a complete but stale row: dropped
		stale := testRow("tail", n+1)
		stale.Space++
		data = append(data, mustMarshal(t, stale)...)
	case 4: // whitespace: dropped
		data = append(data, " \t"...)
	}
	return data
}

// planLine encodes line i in the shape b picks: bits 0-2 the shape, bits
// 3-5 which of eight keys the row carries.
func planLine(t *testing.T, b byte, i int) []byte {
	key := fmt.Sprintf("k%d", b>>3%8)
	row := testRow(key, i+1)
	switch b % 8 {
	case 3, 7: // a serving row; stale at 7
		row = Row{Schema: SchemaVersion, Space: ServingSpaceVersion, Kind: KindServing, Key: key,
			Serving: &serving.Result{Evaluated: i + 1}}
		if b%8 == 7 {
			row.Space++
		}
	case 4: // a stale training row
		row.Space++
	case 5: // a row of a kind this binary does not know
		row = Row{Schema: SchemaVersion, Space: 1, Kind: "future", Key: key}
	case 6:
		return [][]byte{nil, []byte(" "), []byte("\t \r")}[int(b>>3)%3]
	}
	return mustMarshal(t, row)
}

// corruptLine is a committed line that fails decodeRow, in one of four
// shapes picked by i.
func corruptLine(t *testing.T, i int) []byte {
	row := testRow("bad", i+1)
	switch i % 4 {
	case 0:
		return []byte("not json")
	case 1:
		enc := mustMarshal(t, row)
		return enc[:len(enc)/2]
	case 2:
		row.Schema++
	default:
		row.Key = ""
	}
	return mustMarshal(t, row)
}
