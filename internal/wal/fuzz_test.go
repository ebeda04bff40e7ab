package wal_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/wal"
)

// frame renders the i-th record of s as one valid WAL frame.
func frame[K comparable, V any](s subject[K, V], i int) []byte {
	line, err := s.codec.Frame(s.record(i))
	if err != nil {
		panic(err)
	}
	return line
}

// cat concatenates byte slices into a fresh one.
func cat(parts ...[]byte) []byte {
	return bytes.Join(parts, nil)
}

// flip returns a copy of b with byte i xor-ed by mask.
func flip(b []byte, i int, mask byte) []byte {
	out := cat(b)
	out[i] ^= mask
	return out
}

// FuzzReplayFrame feeds arbitrary bytes to the WAL replay path (Open →
// replay → Codec.Decode) of each record codec and checks the recovery
// contract the corruption tests pin for hand-built cases:
//
//   - Open never panics and never errors on a damaged WAL — damage is
//     recovered from, not reported as failure;
//   - accounting is sane: live records plus dropped frames never exceed
//     the number of frames on disk;
//   - the recovered log accepts appends;
//   - a second Open is clean — recovery truncated the WAL to a valid
//     prefix, so no record is dropped twice and nothing is lost.
func FuzzReplayFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abc\n"))       // too short to hold a checksum
	f.Add([]byte("00000000 \n")) // checksum valid, payload not a record
	for _, seed := range [][2][]byte{
		{frame(evidence, 0), frame(evidence, 1)},
		{frame(memory, 0), frame(memory, 1)},
	} {
		a, b := seed[0], seed[1]
		f.Add(cat(a, b))
		// Torn tail: final frame lost its last bytes and its newline.
		f.Add(cat(a, b[:len(b)-5]))
		// CRC flip: one payload byte corrupted in place.
		f.Add(flip(a, 20, 0x40))
		// Bad hex in the checksum field, and a missing space separator.
		badHex := cat(a)
		copy(badHex, "zzzzzzzz")
		f.Add(badHex)
		f.Add(flip(a, 8, ' '^'_'))
		// Valid frame, then binary garbage, then another valid frame.
		f.Add(cat(a, []byte{0xff, 0x00, 0x7f, '\n'}, b))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		replayFrame(t, evidence, data)
		replayFrame(t, memory, data)
	})
}

func replayFrame[K comparable, V any](t *testing.T, s subject[K, V], data []byte) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "wal.evs"), data)
	l, err := wal.Open(dir, s.codec, wal.Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("%s: Open failed on damaged WAL instead of recovering: %v", s.codec.Name, err)
	}
	st := l.Stats()
	lines := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		lines++ // a torn trailer is one more frame
	}
	if st.Records+st.TailDropped > lines {
		t.Fatalf("%s: accounting: %d live + %d dropped > %d frames on disk",
			s.codec.Name, st.Records, st.TailDropped, lines)
	}
	k, v := s.record(1000)
	if err := l.Append(k, v); err != nil {
		t.Fatalf("%s: recovered log rejected an append: %v", s.codec.Name, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("%s: closing recovered log: %v", s.codec.Name, err)
	}

	l2, err := wal.Open(dir, s.codec, wal.Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("%s: reopen after recovery: %v", s.codec.Name, err)
	}
	defer l2.Close()
	st2 := l2.Stats()
	if st2.TailDropped != 0 {
		t.Fatalf("%s: second Open dropped %d frames — recovery left a corrupt prefix behind", s.codec.Name, st2.TailDropped)
	}
	if st2.Records != st.Records+1 {
		t.Fatalf("%s: records changed across clean reopen: %d then %d (expected +1 for the appended key)",
			s.codec.Name, st.Records, st2.Records)
	}
	if got, ok := l2.Get(k); !ok || !reflect.DeepEqual(got, v) {
		t.Fatalf("%s: append made before the clean close did not survive reopen", s.codec.Name)
	}
}

// FuzzTailerStream feeds arbitrary bytes to a follower of each record
// codec as a replication response body — modeling a leader behind a
// hostile network (truncations, flipped bits, duplicated frames, outright
// garbage) — and checks the replication safety contract:
//
//   - Poll never panics, whatever the peer sends;
//   - only CRC-valid frames reach the follower's log, and an identical
//     frame delivered twice is applied once (no double-apply);
//   - the follower's own WAL stays clean: a reopen drops nothing, so
//     network damage never became disk damage.
func FuzzTailerStream(f *testing.F) {
	f.Add([]byte{}, false)
	for _, seed := range [][2][]byte{
		{frame(evidence, 0), frame(evidence, 1)},
		{frame(memory, 0), frame(memory, 1)},
	} {
		a, b := seed[0], seed[1]
		f.Add(cat(a, b), false)
		// Torn tail: the second frame lost its last bytes mid-flight.
		f.Add(cat(a, b[:len(b)-5]), false)
		// Duplicate frames: the same record delivered twice in one body.
		f.Add(cat(a, a), false)
		// CRC flip inside the payload.
		f.Add(flip(a, 20, 0x40), false)
		// Valid frame, garbage, valid frame — only the prefix may apply.
		f.Add(cat(a, []byte{0xff, 0x00, '\n'}, b), false)
		// The same bodies served as full dumps.
		f.Add(cat(a, b), true)
		f.Add(cat(a, a), true)
	}

	f.Fuzz(func(t *testing.T, body []byte, full bool) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := w.Header()
			h.Set(wal.HeaderReplicateGen, "12345")
			h.Set(wal.HeaderReplicateNext, strconv.Itoa(len(body)))
			h.Set(wal.HeaderReplicateLen, strconv.Itoa(len(body)))
			if full {
				h.Set(wal.HeaderReplicateFull, "1")
			}
			_, _ = w.Write(body)
		}))
		defer srv.Close()
		tailerStream(t, evidence, srv.URL, body)
		tailerStream(t, memory, srv.URL, body)
	})
}

func tailerStream[K comparable, V any](t *testing.T, s subject[K, V], url string, body []byte) {
	dir := t.TempDir()
	follower, err := wal.Open(dir, s.codec, wal.Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The dedup rule both stores' tailers apply: skip a record the log
	// already holds identically.
	apply := func(k K, v V) (bool, error) {
		if cur, ok := follower.Get(k); ok && reflect.DeepEqual(cur, v) {
			return false, nil
		}
		return true, follower.Append(k, v)
	}
	// Deliver the body twice, the second time to a fresh tailer that
	// replays it from scratch: the second delivery of the same bytes must
	// dedup against the first, not double-apply.
	var applied int64
	for i := 0; i < 2; i++ {
		tl := wal.NewTailer(url, s.codec, wal.TailerOptions[K, V]{Apply: apply})
		if _, err := tl.Poll(context.Background()); err != nil {
			t.Fatalf("%s: poll %d errored on hostile bytes: %v", s.codec.Name, i, err)
		}
		applied += tl.Stats().Applied
	}

	// Every applied record must correspond to a valid frame in the body,
	// and re-delivery must not have double-applied any of them.
	validFrames := 0
	uniq := make(map[K]bool)
	s.codec.Scan(body, func(k K, _ V) {
		validFrames++
		uniq[k] = true
	})
	if int(applied) > validFrames {
		t.Fatalf("%s: applied %d records from a body holding %d valid frames", s.codec.Name, applied, validFrames)
	}
	if follower.Len() > len(uniq) {
		t.Fatalf("%s: log holds %d keys from a body holding %d distinct valid keys", s.codec.Name, follower.Len(), len(uniq))
	}

	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := wal.Open(dir, s.codec, wal.Options{CompactEvery: -1})
	if err != nil {
		t.Fatalf("%s: follower unopenable after hostile replication: %v", s.codec.Name, err)
	}
	defer re.Close()
	if re.Stats().TailDropped != 0 {
		t.Fatalf("%s: hostile network bytes reached the follower's WAL: %d frames dropped on reopen", s.codec.Name, re.Stats().TailDropped)
	}
	if re.Len() != follower.Len() {
		t.Fatalf("%s: follower lost records across reopen: %d then %d", s.codec.Name, follower.Len(), re.Len())
	}
}
