package wal_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/evserve"
	"repro/internal/evstore"
	"repro/internal/pipeline"
	"repro/internal/qmemory"
	"repro/internal/wal"
)

// subject is one record codec under test, with a generator of distinct
// records for it.
type subject[K comparable, V any] struct {
	codec wal.Codec[K, V]
	// record returns the i-th test record; distinct i give distinct keys.
	record func(i int) (K, V)
}

// evidence is the evidence store's codec, with records that carry a
// stage trace so recovery covers the provenance path too.
var evidence = subject[evserve.Key, evserve.Entry]{
	codec: evstore.Codec,
	record: func(i int) (evserve.Key, evserve.Entry) {
		wall := int64(i + 1)
		return evserve.KeyFor("db", "v", strings.Repeat("q", i+1)), evserve.Entry{
			Evidence: strings.Repeat("e", i+1),
			Trace: &pipeline.Trace{
				Graph: "seed_evidence",
				Stages: []pipeline.StageTrace{
					{Stage: "extract_keywords", WallMicros: wall, Tokens: 12},
					{Stage: "generate", Deps: []string{"extract_keywords"}, WallMicros: wall * 2, Tokens: 40},
				},
				WallMicros:   wall * 3,
				SerialMicros: wall * 3,
			},
		}
	},
}

// memory is the query-memory store's codec.
var memory = subject[string, qmemory.Record]{
	codec: qmemory.StoreCodec,
	record: func(i int) (string, qmemory.Record) {
		id := fmt.Sprintf("pattern-%d", i)
		return id, qmemory.Record{
			ID: id, DB: "shop", SQL: fmt.Sprintf("SELECT %d FROM orders", i),
			Fingerprint: "fp", Confidence: 0.9, Successes: int64(i + 1),
			Phrasings: []string{strings.Repeat("q", i+1)},
		}
	},
}

func openLog[K comparable, V any](t *testing.T, s subject[K, V], dir string, opts wal.Options) *wal.Log[K, V] {
	t.Helper()
	l, err := wal.Open(dir, s.codec, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// loadAll replays a log into a map for assertions.
func loadAll[K comparable, V any](t *testing.T, l *wal.Log[K, V]) map[K]V {
	t.Helper()
	got := make(map[K]V)
	if err := l.Load(func(k K, v V) { got[k] = v }); err != nil {
		t.Fatalf("Load: %v", err)
	}
	return got
}

// populate appends records 0..n-1 through a log and closes it, returning
// the keys in append order.
func populate[K comparable, V any](t *testing.T, s subject[K, V], dir string, n int) []K {
	t.Helper()
	l := openLog(t, s, dir, wal.Options{CompactEvery: -1})
	keys := make([]K, n)
	for i := range keys {
		k, v := s.record(i)
		keys[i] = k
		if err := l.Append(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestWALCorruptionRecovery is the durability contract under damage, for
// each record codec: whatever happens to the tail of the log, Open
// recovers the longest valid prefix, reports what it dropped, and leaves
// the WAL appendable.
func TestWALCorruptionRecovery(t *testing.T) {
	t.Run("evstore", func(t *testing.T) { walCorruptionRecovery(t, evidence) })
	t.Run("qmemory", func(t *testing.T) { walCorruptionRecovery(t, memory) })
}

func walCorruptionRecovery[K comparable, V any](t *testing.T, s subject[K, V]) {
	const total = 6
	tests := []struct {
		name string
		// corrupt mutates the on-disk WAL after a clean shutdown.
		corrupt func(t *testing.T, wal string)
		// wantRecords is how many of the appended records must survive.
		wantRecords int
		// wantDropped is the TailDropped count Open must report.
		wantDropped int
	}{
		{
			name: "truncated tail record",
			corrupt: func(t *testing.T, wal string) {
				data := readFile(t, wal)
				// Chop the last record in half: the newline (and half the
				// payload) never made it to disk.
				lines := bytes.SplitAfter(data, []byte{'\n'})
				last := lines[len(lines)-2] // final element is the empty tail after the last \n
				writeFile(t, wal, data[:len(data)-len(last)/2-1])
			},
			wantRecords: total - 1,
			wantDropped: 1,
		},
		{
			name: "crc mismatch mid-file",
			corrupt: func(t *testing.T, wal string) {
				data := readFile(t, wal)
				lines := bytes.SplitAfter(data, []byte{'\n'})
				// Flip one payload byte in the third record; its CRC no
				// longer matches, so it and everything after it is
				// untrusted.
				idx := len(lines[0]) + len(lines[1]) + 20
				data[idx] ^= 0xff
				writeFile(t, wal, data)
			},
			wantRecords: 2,
			wantDropped: total - 2,
		},
		{
			name: "bad frame mid-file",
			corrupt: func(t *testing.T, wal string) {
				data := readFile(t, wal)
				lines := bytes.SplitAfter(data, []byte{'\n'})
				var out []byte
				out = append(out, lines[0]...)
				out = append(out, []byte("not a framed record\n")...)
				for _, l := range lines[2:] {
					out = append(out, l...)
				}
				writeFile(t, wal, out)
			},
			wantRecords: 1,
			wantDropped: total - 1,
		},
		{
			name:        "wal deleted entirely",
			corrupt:     func(t *testing.T, wal string) { os.Remove(wal) },
			wantRecords: 0,
			wantDropped: 0,
		},
		{
			name:        "wal emptied",
			corrupt:     func(t *testing.T, wal string) { writeFile(t, wal, nil) },
			wantRecords: 0,
			wantDropped: 0,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			keys := populate(t, s, dir, total)
			tc.corrupt(t, filepath.Join(dir, "wal.evs"))

			l := openLog(t, s, dir, wal.Options{})
			got := loadAll(t, l)
			if len(got) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(got), tc.wantRecords)
			}
			// The surviving records are exactly the prefix, intact.
			for i := 0; i < tc.wantRecords; i++ {
				v, ok := got[keys[i]]
				if !ok {
					t.Fatalf("prefix record %d missing after recovery", i)
				}
				if _, want := s.record(i); !reflect.DeepEqual(v, want) {
					t.Fatalf("record %d = %+v after recovery, want %+v", i, v, want)
				}
			}
			if st := l.Stats(); st.TailDropped != tc.wantDropped {
				t.Fatalf("TailDropped = %d, want %d", st.TailDropped, tc.wantDropped)
			}

			// The WAL was truncated to the valid prefix, so the log is
			// appendable: a fresh write lands cleanly after another cycle.
			nk, nv := s.record(100)
			if err := l.Append(nk, nv); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			r := openLog(t, s, dir, wal.Options{})
			defer r.Close()
			if st := r.Stats(); st.TailDropped != 0 {
				t.Fatalf("second reopen still drops %d records — recovery did not repair the log", st.TailDropped)
			}
			if got := loadAll(t, r); len(got) != tc.wantRecords+1 || !reflect.DeepEqual(got[nk], nv) {
				t.Fatalf("post-recovery append not durable: %d records", len(got))
			}
		})
	}
}

// TestSnapshotCorruptionRecovery covers the snapshot side, for each
// record codec: an empty, missing, or tail-corrupt snapshot degrades to
// the longest valid prefix plus whatever the WAL still holds.
func TestSnapshotCorruptionRecovery(t *testing.T) {
	t.Run("evstore", func(t *testing.T) { snapshotCorruptionRecovery(t, evidence) })
	t.Run("qmemory", func(t *testing.T) { snapshotCorruptionRecovery(t, memory) })
}

func snapshotCorruptionRecovery[K comparable, V any](t *testing.T, s subject[K, V]) {
	setup := func(t *testing.T) string {
		dir := t.TempDir()
		l := openLog(t, s, dir, wal.Options{CompactEvery: -1})
		for i := 0; i < 4; i++ {
			if err := l.Append(s.record(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Move everything into the snapshot, then add two WAL-only records.
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		for i := 10; i < 12; i++ {
			if err := l.Append(s.record(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	tests := []struct {
		name        string
		corrupt     func(t *testing.T, snap string)
		wantRecords int // surviving records across snapshot + WAL
		wantDropped int
	}{
		{
			name:        "missing snapshot keeps wal tail",
			corrupt:     func(t *testing.T, snap string) { os.Remove(snap) },
			wantRecords: 2,
			wantDropped: 0,
		},
		{
			name:        "empty snapshot keeps wal tail",
			corrupt:     func(t *testing.T, snap string) { writeFile(t, snap, nil) },
			wantRecords: 2,
			wantDropped: 0,
		},
		{
			name: "snapshot tail truncated mid-record",
			corrupt: func(t *testing.T, snap string) {
				data := readFile(t, snap)
				writeFile(t, snap, data[:len(data)-10])
			},
			wantRecords: 3 + 2, // 3 intact snapshot records + 2 WAL records
			wantDropped: 1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := setup(t)
			tc.corrupt(t, filepath.Join(dir, "snapshot.evs"))
			l := openLog(t, s, dir, wal.Options{})
			defer l.Close()
			if got := loadAll(t, l); len(got) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(got), tc.wantRecords)
			}
			if st := l.Stats(); st.TailDropped != tc.wantDropped {
				t.Fatalf("TailDropped = %d, want %d", st.TailDropped, tc.wantDropped)
			}
		})
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
