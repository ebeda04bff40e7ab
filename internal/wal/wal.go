// Package wal is the one durable log under this repository's stores: a
// crash-safe, append-only keyed log that keeps the latest value per key,
// compacts itself in the background, and ships its bytes to followers.
// The evidence store (internal/evstore) and the query-memory store
// (internal/qmemory) are record codecs over it; everything below — the
// framing, replay, truncation, compaction, locking, the manifest check
// and replication — exists once, here.
//
// On disk a log is one directory holding two files (plus a transient
// third while a compaction is in flight) and two bookkeeping files:
//
//	wal.evs       append-only write-ahead log, one CRC-framed record per
//	              accepted append
//	snapshot.evs  the compacted live set (latest record per key), same
//	              framing, rewritten atomically by compaction
//	wal.tail.evs  the previous WAL generation, rotated out at the start
//	              of a compaction; removed once the snapshot lands
//	lock          carries the advisory flock: one process per directory
//	manifest      the identity stamp of what the records were built from
//
// Every line is "crc8hex payload\n" where the CRC is the Castagnoli CRC-32
// of the payload bytes and the payload is whatever the Codec encodes.
// Open replays snapshot, then tail, then WAL, newest record per key
// winning; replay stops at the first torn or corrupt record, recovering
// the longest valid prefix, and Open truncates the WAL back to that prefix
// so subsequent appends never interleave with garbage.
//
// Compaction runs off the append path: crossing Options.CompactEvery
// rotates the WAL to wal.tail.evs under the lock (cheap) and writes the
// staged live set to a temp snapshot in the background, fsyncs, renames it
// over the old snapshot, and only then removes the tail. Every crash
// point is recoverable — the worst case is a surviving tail whose records
// the snapshot already holds, which the next Open replays idempotently
// and absorbs into a fresh snapshot.
//
// A Log is safe for concurrent use by one process. Two processes cannot
// open the same directory at once: the flock refuses the second, because
// appends from separate file handles would interleave mid-frame.
package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// File names inside a log directory. walTailFile exists only while a
// compaction is in flight (or after a crash interrupted one): it is the
// previous WAL generation, rotated out so appends continue into a fresh
// WAL while the snapshot is written in the background. lockFileName
// carries the advisory flock that enforces one process per directory, and
// manifestFile stamps the identity the records were built from.
const (
	walFile      = "wal.evs"
	walTailFile  = "wal.tail.evs"
	snapshotFile = "snapshot.evs"
	lockFileName = "lock"
	manifestFile = "manifest"
)

// ErrClosed is returned by Append, Flush, Compact and ReplicationRead
// after Close.
var ErrClosed = errors.New("wal: log closed")

// castagnoli is the CRC-32C table used to frame every record.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec is what the log needs to know about one record type: how a
// record's payload is encoded and decoded, and how keys order. The
// framing around the payload is the log's.
type Codec[K comparable, V any] struct {
	// Name prefixes the log's errors and metric names: "evstore" gives
	// "evstore: ..." errors and an evstore_records gauge.
	Name string
	// Encode renders one record's payload, which must not contain a
	// newline (JSON never does).
	Encode func(K, V) ([]byte, error)
	// Decode parses a payload Encode produced; ok=false marks the frame
	// corrupt, which ends replay at the longest valid prefix.
	Decode func(payload []byte) (k K, v V, ok bool)
	// Less orders keys, making snapshots, full dumps and Load
	// deterministic.
	Less func(a, b K) bool
}

// Frame encodes one record as a log frame: 8 hex CRC digits, a space, the
// payload, a newline.
func (c Codec[K, V]) Frame(k K, v V) ([]byte, error) {
	payload, err := c.Encode(k, v)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, castagnoli))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decodeFrame parses one framed line (without its newline), verifying
// the CRC before trusting the payload. It runs once per record on the
// startup replay path, so the frame parse avoids fmt's scan machinery.
func (c Codec[K, V]) decodeFrame(line []byte) (k K, v V, ok bool) {
	if len(line) < 10 || line[8] != ' ' {
		return k, v, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return k, v, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, castagnoli) != uint32(want) {
		return k, v, false
	}
	return c.Decode(payload)
}

// Scan walks the complete, CRC-valid frames at the head of data, calling
// fn for each decoded record. It returns how many bytes those frames span
// — a torn final frame (no newline yet) or a corrupt frame stops the scan
// without consuming it, so a caller resuming at from+consumed always lands
// on a frame boundary.
func (c Codec[K, V]) Scan(data []byte, fn func(K, V)) (consumed int) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: wait for the rest
		}
		k, v, ok := c.decodeFrame(data[off : off+nl])
		if !ok {
			break // corrupt frame: do not consume it or anything after
		}
		fn(k, v)
		off += nl + 1
	}
	return off
}

// Options configures a Log.
type Options struct {
	// CompactEvery triggers a snapshot compaction once this many records
	// have accumulated in the WAL; 0 defaults to 1024, negative disables
	// automatic compaction (Compact can still be called explicitly).
	CompactEvery int
	// FlushEvery batches buffered WAL appends: the writer is flushed to
	// the OS every FlushEvery records. 0 or 1 flushes per append — the
	// crash-safe default — so a SIGKILL loses at most the record being
	// written. Values > 1 trade tail-loss risk for fewer write syscalls;
	// Flush (which evserve.Service.Close calls) drains the batch.
	FlushEvery int
	// Sync additionally fsyncs the WAL after every flush and the log
	// directory after every rename/create/remove, extending durability
	// from process death to power loss. Off by default; Close fsyncs the
	// WAL either way.
	Sync bool
	// Manifest identifies what the records were built from (e.g.
	// "corpus=bird seed=7"). A fresh log is stamped with it; a re-opened
	// log whose stamp differs refuses to open, because both stores key
	// records by question or SQL text alone — replaying a log built from a
	// different corpus generation would serve stale records as hits.
	// Empty skips the check.
	Manifest string
}

// Log is a durable keyed log. Construct with Open; the zero value is not
// usable.
type Log[K comparable, V any] struct {
	dir   string
	codec Codec[K, V]
	opts  Options

	mu         sync.Mutex
	lock       *os.File // holds the directory flock for the log's lifetime
	wal        *os.File
	w          *bufio.Writer
	pending    int // appends buffered since the last flush
	walRecords int // records in the current WAL generation
	records    map[K]V
	closed     bool
	// walValidLen is the byte length of the longest valid prefix of the
	// last file replayFile scanned; Open uses it to truncate a corrupt
	// WAL tail back to a record boundary.
	walValidLen int64

	// walGen identifies the current WAL byte stream for replication: a
	// follower's byte offset is only meaningful against the generation it
	// was read from. Open stamps a fresh generation and every rotation
	// (compaction) bumps it, so a follower holding offsets into a file
	// that no longer exists detects the fact and resyncs from a full dump
	// instead of misreading reused offsets.
	walGen int64
	// walWritten counts bytes accepted into the current WAL (including
	// bytes still in the bufio buffer); walBytes counts bytes flushed to
	// the OS — the replication-visible prefix. ReplicationRead never
	// serves past walBytes, because buffered bytes can still be lost to a
	// crash and a follower must not get ahead of the leader's own
	// durability.
	walWritten int64
	walBytes   int64

	// compacting marks a background compaction in flight; compactDone is
	// that compaction's completion latch, non-nil exactly while one runs.
	// A channel per generation (rather than one reused WaitGroup) lets
	// Flush, Compact and Close wait outside l.mu without racing a
	// concurrent Append's Add against a returning Wait.
	compacting  bool
	compactDone chan struct{}

	appends         int64
	compactions     int64
	compactErrors   int64
	tailDropped     int
	snapshotRecords int
	snapshotAt      time.Time
	replay          time.Duration
}

// errorf builds an error carrying the codec's name, as every error the
// log returns does.
func (l *Log[K, V]) errorf(format string, args ...any) error {
	return fmt.Errorf(l.codec.Name+": "+format, args...)
}

// Open creates (or re-opens) the log rooted at dir, replaying
// snapshot + WAL to rebuild the live set. A torn or corrupt WAL tail is
// truncated away so the file ends on a record boundary before any new
// append.
func Open[K comparable, V any](dir string, codec Codec[K, V], opts Options) (*Log[K, V], error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 1024
	}
	if opts.FlushEvery <= 0 {
		opts.FlushEvery = 1
	}
	l := &Log[K, V]{
		dir:        dir,
		codec:      codec,
		opts:       opts,
		records:    make(map[K]V),
		snapshotAt: time.Now(),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, l.errorf("%w", err)
	}
	// One process per directory, enforced: two writers would interleave
	// WAL frames mid-record and the damage would surface only as silently
	// dropped records on the next replay. flock is advisory but released
	// by the kernel on any process death, so crash recovery never meets a
	// stale lock.
	lf, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, l.errorf("%w", err)
	}
	if err := lockFile(lf); err != nil {
		lf.Close()
		return nil, l.errorf("%s is in use by another process (flock: %w)", dir, err)
	}
	l.lock = lf
	ok := false
	defer func() {
		if !ok {
			lf.Close() // releases the flock
		}
	}()
	if opts.Manifest != "" {
		mPath := filepath.Join(dir, manifestFile)
		existing, merr := os.ReadFile(mPath)
		switch {
		case errors.Is(merr, os.ErrNotExist):
			if err := os.WriteFile(mPath, []byte(opts.Manifest), 0o644); err != nil {
				return nil, l.errorf("%w", err)
			}
		case merr != nil:
			return nil, l.errorf("%w", merr)
		case string(existing) != opts.Manifest:
			return nil, l.errorf(
				"manifest mismatch: %s holds records for %q but this process expects %q — serving them would return stale records as hits; delete the directory to rebuild",
				dir, existing, opts.Manifest)
		}
	}
	start := time.Now()
	snapDropped, _, err := l.replayFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	l.snapshotRecords = len(l.records)
	if fi, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
		l.snapshotAt = fi.ModTime()
	}
	// A tail WAL exists only when a crash interrupted a compaction: its
	// records are newer than the snapshot and older than the current WAL,
	// so it replays in between.
	tailPath := filepath.Join(dir, walTailFile)
	tailDropped, _, err := l.replayFile(tailPath)
	if err != nil {
		return nil, err
	}
	_, tailErr := os.Stat(tailPath)
	tailExists := tailErr == nil
	walPath := filepath.Join(dir, walFile)
	walDropped, walValid, err := l.replayFile(walPath)
	if err != nil {
		return nil, err
	}
	l.walRecords = walValid
	l.tailDropped = snapDropped + tailDropped + walDropped
	l.replay = time.Since(start)

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, l.errorf("%w", err)
	}
	if walDropped > 0 {
		// Cut the corrupt tail so new appends start on a record boundary.
		if err := f.Truncate(l.walValidLen); err != nil {
			f.Close()
			return nil, l.errorf("truncating corrupt WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, l.errorf("%w", err)
	}
	l.wal = f
	l.w = bufio.NewWriter(f)
	// The WAL now ends exactly at walValidLen (the corrupt tail, if any,
	// was truncated above). Replication offsets start there, under a fresh
	// generation: offsets handed out by a previous process are invalid —
	// the torn tail may have moved the boundary — so followers of the old
	// generation full-resync rather than resume.
	l.walGen = time.Now().UnixNano()
	l.walWritten = l.walValidLen
	l.walBytes = l.walValidLen
	if opts.Sync {
		// Cover the WAL's own directory entry when Open just created it.
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, l.errorf("%w", err)
		}
	}
	if tailExists {
		// Finish what the crashed compaction started: the replayed state
		// already includes the tail's records, so write them straight
		// into a fresh snapshot (writeSnapshot also removes the tail).
		// The WAL keeps its records — replaying them over the new
		// snapshot on the next Open is idempotent.
		if err := l.writeSnapshot(l.records); err != nil {
			l.wal.Close()
			return nil, l.errorf("absorbing interrupted compaction: %w", err)
		}
		l.snapshotRecords = len(l.records)
		l.snapshotAt = time.Now()
		l.compactions++
	}
	ok = true
	return l, nil
}

// replayFile folds one framed file into the live set, stopping at the
// first invalid record. It returns how many trailing records (torn,
// CRC-mismatched, or undecodable — plus everything after them) were
// dropped and how many valid records were applied. A missing file is an
// empty file.
func (l *Log[K, V]) replayFile(path string) (dropped, valid int, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, l.errorf("%w", err)
	}
	n := l.codec.Scan(data, func(k K, v V) {
		l.records[k] = v
		valid++
	})
	// Everything past the valid prefix is untrusted — a torn final record,
	// or a corrupt one and every frame after it, which may itself be
	// mid-record garbage.
	l.walValidLen = int64(n)
	return countLines(data[n:]), valid, nil
}

// syncDir fsyncs a directory, making renames, creations and removals
// inside it durable — fsyncing file contents alone does not cover the
// directory entries. Only the Sync option pays this cost.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// countLines counts newline-terminated chunks in data, counting a torn
// trailer as one more.
func countLines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// Append persists one record write-through: it reaches the OS according
// to Options.FlushEvery and triggers compaction when the WAL has grown
// past Options.CompactEvery records. Re-appending a key overwrites its
// live value.
func (l *Log[K, V]) Append(k K, v V) error {
	line, err := l.codec.Frame(k, v)
	if err != nil {
		return l.errorf("%w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.w.Write(line); err != nil {
		return l.errorf("%w", err)
	}
	l.walWritten += int64(len(line))
	l.records[k] = v
	l.appends++
	l.walRecords++
	l.pending++
	if l.pending >= l.opts.FlushEvery {
		if err := l.flushLocked(); err != nil {
			return err
		}
	}
	if l.opts.CompactEvery > 0 && l.walRecords >= l.opts.CompactEvery && !l.compacting {
		// Rotate under the lock (cheap: a rename and a fresh file), write
		// the snapshot in the background — the request that crossed the
		// threshold, and every concurrent Append, never waits for a full
		// live-set rewrite. A repeat trigger while one compaction runs is
		// skipped; the WAL simply grows until the next crossing.
		staged, done, err := l.beginCompactionLocked()
		if err != nil {
			return err
		}
		go l.finishCompaction(staged, done)
	}
	return nil
}

// sortedKeys returns m's keys in codec order — the one ordering Load,
// snapshots and full dumps share.
func (l *Log[K, V]) sortedKeys(m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return l.codec.Less(keys[i], keys[j]) })
	return keys
}

// writeFrames frames every record of m to w, in key order.
func (l *Log[K, V]) writeFrames(w io.Writer, m map[K]V) error {
	for _, k := range l.sortedKeys(m) {
		line, err := l.codec.Frame(k, m[k])
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// Load streams every live record (latest per key) to fn, in key order.
func (l *Log[K, V]) Load(fn func(K, V)) error {
	l.mu.Lock()
	records := make(map[K]V, len(l.records))
	for k, v := range l.records {
		records[k] = v
	}
	l.mu.Unlock()
	for _, k := range l.sortedKeys(records) {
		fn(k, records[k])
	}
	return nil
}

// Flush drains buffered appends to the OS (and to stable storage when
// Options.Sync is set), then waits for any in-flight background
// compaction — so Flush returning means the log's on-disk state is a
// complete, quiescent image of every accepted write. It is what makes
// "accepted write" mean "survives SIGKILL" for batched FlushEvery
// configurations.
func (l *Log[K, V]) Flush() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	err := l.flushLocked()
	done := l.compactDone
	l.mu.Unlock()
	// Outside the lock: finishCompaction re-acquires l.mu to publish its
	// counters, so waiting under it would deadlock.
	if done != nil {
		<-done
	}
	return err
}

func (l *Log[K, V]) flushLocked() error {
	if err := l.w.Flush(); err != nil {
		return l.errorf("%w", err)
	}
	l.pending = 0
	l.walBytes = l.walWritten
	if l.opts.Sync {
		if err := l.wal.Sync(); err != nil {
			return l.errorf("%w", err)
		}
	}
	return nil
}

// Compact rewrites the live set into a fresh snapshot and empties the
// WAL, synchronously. Safe to call at any time; Append triggers the same
// work in the background per Options.CompactEvery. When a background
// compaction is already running, Compact waits for it instead of
// starting another.
func (l *Log[K, V]) Compact() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.compacting {
		done := l.compactDone
		l.mu.Unlock()
		if done != nil {
			<-done
		}
		return nil
	}
	staged, done, err := l.beginCompactionLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.finishCompaction(staged, done)
}

// beginCompactionLocked is the cheap, mutex-held half of a compaction:
// flush and rotate the current WAL to wal.tail.evs, open a fresh WAL for
// subsequent appends, and stage a point-in-time copy of the live set.
// The expensive snapshot write happens in finishCompaction, off the
// append path. Callers must hold l.mu and have checked !l.compacting.
// The returned channel is this compaction generation's completion latch.
func (l *Log[K, V]) beginCompactionLocked() (map[K]V, chan struct{}, error) {
	if err := l.flushLocked(); err != nil {
		return nil, nil, err
	}
	walPath := filepath.Join(l.dir, walFile)
	tailPath := filepath.Join(l.dir, walTailFile)
	if _, err := os.Stat(tailPath); err == nil {
		// A leftover tail from a failed compaction: renaming over it
		// would drop its records from disk, so fold the current WAL into
		// it instead (append, sync, then truncate the WAL — a crash in
		// between merely duplicates records, and replay is idempotent).
		data, err := os.ReadFile(walPath)
		if err != nil {
			return nil, nil, l.errorf("%w", err)
		}
		tf, err := os.OpenFile(tailPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, l.errorf("%w", err)
		}
		_, werr := tf.Write(data)
		if serr := tf.Sync(); werr == nil {
			werr = serr
		}
		if cerr := tf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, nil, l.errorf("folding WAL into tail: %w", werr)
		}
		if err := l.wal.Truncate(0); err != nil {
			return nil, nil, l.errorf("%w", err)
		}
		if _, err := l.wal.Seek(0, 0); err != nil {
			return nil, nil, l.errorf("%w", err)
		}
		l.w.Reset(l.wal)
	} else {
		// Rename before closing: the open handle follows the renamed file,
		// so a rename failure leaves the log exactly as it was — still
		// holding a writable WAL.
		if err := os.Rename(walPath, tailPath); err != nil {
			return nil, nil, l.errorf("rotating WAL: %w", err)
		}
		if err := l.wal.Close(); err != nil {
			return nil, nil, l.errorf("%w", err)
		}
		f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			// Roll the rotation back so the log keeps a writable WAL
			// instead of silently dropping durability until restart.
			if rerr := os.Rename(tailPath, walPath); rerr == nil {
				if rf, oerr := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644); oerr == nil {
					if _, serr := rf.Seek(0, 2); serr == nil {
						l.wal = rf
						l.w.Reset(rf)
						return nil, nil, l.errorf("reopening WAL after rotation (rolled back): %w", err)
					}
					rf.Close()
				}
			}
			return nil, nil, l.errorf("WAL unavailable after failed rotation — log is no longer durable: %w", err)
		}
		l.wal = f
		l.w.Reset(f)
		if l.opts.Sync {
			// The rename and the fresh WAL's directory entry must be as
			// durable as the record fsyncs that follow.
			if err := syncDir(l.dir); err != nil {
				return nil, nil, l.errorf("%w", err)
			}
		}
	}
	l.pending = 0
	l.walRecords = 0
	// The WAL byte stream just changed identity (emptied in place or
	// replaced by a fresh file): retire the replication generation so
	// follower offsets into the old stream full-resync instead of reading
	// new bytes at stale positions.
	l.walGen = time.Now().UnixNano()
	l.walWritten = 0
	l.walBytes = 0
	staged := make(map[K]V, len(l.records))
	for k, v := range l.records {
		staged[k] = v
	}
	l.compacting = true
	done := make(chan struct{})
	l.compactDone = done
	return staged, done, nil
}

// finishCompaction is the slow half: write the staged live set to
// snapshot.evs.tmp, fsync, rename it over the snapshot, then remove the
// rotated tail WAL (every one of its records is in the new snapshot).
// Write-rename-remove ordering keeps every crash point recoverable: the
// worst case is a surviving tail file whose records the snapshot already
// holds, which the next Open replays idempotently and absorbs. On error
// the tail is likewise left in place — no data is lost, only the
// compaction is abandoned (counted in Stats.CompactErrors).
func (l *Log[K, V]) finishCompaction(staged map[K]V, done chan struct{}) error {
	defer close(done)
	err := l.writeSnapshot(staged)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compacting = false
	if l.compactDone == done {
		l.compactDone = nil
	}
	if err != nil {
		l.compactErrors++
		return err
	}
	l.snapshotRecords = len(staged)
	l.snapshotAt = time.Now()
	l.compactions++
	return nil
}

// writeSnapshot persists the staged live set and removes the tail WAL.
// It runs without l.mu — it touches only the staged copy and files no
// other path writes.
func (l *Log[K, V]) writeSnapshot(staged map[K]V) error {
	tmp := filepath.Join(l.dir, snapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return l.errorf("%w", err)
	}
	w := bufio.NewWriter(f)
	writeErr := l.writeFrames(w, staged)
	if writeErr == nil {
		writeErr = w.Flush()
	}
	if writeErr == nil {
		writeErr = f.Sync()
	}
	if cerr := f.Close(); writeErr == nil {
		writeErr = cerr
	}
	if writeErr != nil {
		os.Remove(tmp)
		return l.errorf("writing snapshot: %w", writeErr)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotFile)); err != nil {
		return l.errorf("%w", err)
	}
	if err := os.Remove(filepath.Join(l.dir, walTailFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return l.errorf("%w", err)
	}
	if l.opts.Sync {
		// Make the snapshot rename and tail removal themselves durable.
		if err := syncDir(l.dir); err != nil {
			return l.errorf("%w", err)
		}
	}
	return nil
}

// Close flushes, waits for any in-flight compaction, fsyncs and closes
// the WAL, and releases the directory lock. Idempotent; Append and Flush
// fail with ErrClosed afterwards.
func (l *Log[K, V]) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.flushLocked()
	l.closed = true
	done := l.compactDone
	l.mu.Unlock()
	// Let the background snapshot finish before closing the WAL handle:
	// abandoning it mid-write would leave a tail file for the next Open
	// to absorb (safe, but needlessly). closed=true is already published,
	// so no new compaction can begin behind this wait.
	if done != nil {
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// A clean shutdown is durable against power loss too, whatever
	// Options.Sync says: one fsync per Close is cheap.
	if serr := l.wal.Sync(); err == nil && serr != nil {
		err = l.errorf("syncing WAL at close: %w", serr)
	}
	if cerr := l.wal.Close(); err == nil {
		err = cerr
	}
	// Closing the lock file releases the flock, letting the next process
	// (or a test's reopen) take the directory.
	if cerr := l.lock.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get returns the live record for a key, if any. Replication uses it to
// detect records a follower already holds (full-mesh shipping would
// otherwise echo every record back and forth forever).
func (l *Log[K, V]) Get(k K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.records[k]
	return v, ok
}

// Len returns the number of live records (latest per key).
func (l *Log[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Dir returns the log's directory.
func (l *Log[K, V]) Dir() string { return l.dir }

// Stats is a point-in-time snapshot of the log's counters, shaped for
// the /metrics endpoint.
type Stats struct {
	// Records is the live record count (latest per key).
	Records int `json:"records"`
	// SnapshotRecords is the live record count as of the last compaction
	// (or the snapshot replayed at Open).
	SnapshotRecords int `json:"snapshot_records"`
	// WALRecords counts records in the current WAL generation.
	WALRecords int `json:"wal_records"`
	// TailDropped counts torn or corrupt records dropped during the last
	// Open's replay.
	TailDropped int `json:"tail_dropped"`
	// Appends counts Append calls accepted since Open.
	Appends int64 `json:"appends"`
	// Compactions counts completed snapshot rewrites since Open.
	Compactions int64 `json:"compactions"`
	// CompactErrors counts abandoned compactions (snapshot write failed;
	// no data lost — the rotated WAL tail stays on disk for the next
	// attempt or Open to absorb).
	CompactErrors int64 `json:"compact_errors,omitempty"`
	// ReplayMicros is how long the Open-time snapshot+WAL replay took.
	ReplayMicros int64 `json:"replay_us"`
	// SnapshotAgeSeconds is the time since the last compaction (or since
	// Open when none has run).
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
}

// Stats snapshots the log counters.
func (l *Log[K, V]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Records:            len(l.records),
		SnapshotRecords:    l.snapshotRecords,
		WALRecords:         l.walRecords,
		TailDropped:        l.tailDropped,
		Appends:            l.appends,
		Compactions:        l.compactions,
		CompactErrors:      l.compactErrors,
		ReplayMicros:       l.replay.Microseconds(),
		SnapshotAgeSeconds: time.Since(l.snapshotAt).Seconds(),
	}
}
