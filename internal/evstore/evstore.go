// Package evstore is the durability layer under the evidence cache: the
// record codec that puts generated SEED evidence (and its stage-graph
// provenance) on the shared durable log, internal/wal. The paper's
// practicality claim is that evidence is generated once and reused across
// queries and sessions; without a durable store every seedd restart throws
// the evserve cache away and re-pays the full LLM round-trip cost for every
// question.
//
// A Store is a wal.Log keyed by evserve.Key: the on-disk layout (wal.evs,
// snapshot.evs, wal.tail.evs, lock, manifest), crash recovery, background
// compaction and WAL-shipping replication are all the log's. This package
// adds the JSON record shape, the corpus manifest stamp, and the
// replication dedup rule.
package evstore

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"time"

	"repro/internal/evserve"
	"repro/internal/pipeline"
	"repro/internal/wal"
)

// The store is the shared log instantiated for evidence; the names below
// keep the package's surface for its callers.
type (
	// Store is a durable evidence store. It implements evserve.Store.
	Store = wal.Log[evserve.Key, evserve.Entry]
	// Options configures a Store.
	Options = wal.Options
	// Stats is the store's counter snapshot.
	Stats = wal.Stats
	// Tailer replicates one peer's evidence store into a local one.
	Tailer = wal.Tailer[evserve.Key, evserve.Entry]
	// TailerStats is the /metrics view of one replication stream.
	TailerStats = wal.TailerStats
)

// ErrClosed is returned by Append and Flush after Close.
var ErrClosed = wal.ErrClosed

// Manifest renders the canonical corpus-identity stamp every tool in this
// repository writes (seedd, seedgen, the experiment drivers, storebench),
// so a store produced by one opens cleanly in the others. Byte equality
// is load-bearing — Open refuses a store whose stamp differs — which is
// why the string is built in exactly one place.
func Manifest(corpus string, seed uint64) string {
	return fmt.Sprintf("corpus=%s seed=%d", corpus, seed)
}

// record is the on-disk JSON payload: the full cache key plus the entry.
// QHash is persisted rather than recomputed because evserve hashes the
// whole (db, variant, question) triple and the question text itself is not
// stored — the store never needs it, only the key the cache will look up.
type record struct {
	DB       string          `json:"db"`
	Variant  string          `json:"variant"`
	QHash    uint64          `json:"qhash"`
	Evidence string          `json:"evidence"`
	Trace    *pipeline.Trace `json:"trace,omitempty"`
}

// Codec frames evidence records for the log, ordering keys by DB, then
// variant, then hash.
var Codec = wal.Codec[evserve.Key, evserve.Entry]{
	Name: "evstore",
	Encode: func(k evserve.Key, e evserve.Entry) ([]byte, error) {
		return json.Marshal(record{DB: k.DB, Variant: k.Variant, QHash: k.QHash, Evidence: e.Evidence, Trace: e.Trace})
	},
	Decode: func(payload []byte) (evserve.Key, evserve.Entry, bool) {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return evserve.Key{}, evserve.Entry{}, false
		}
		return evserve.Key{DB: rec.DB, Variant: rec.Variant, QHash: rec.QHash},
			evserve.Entry{Evidence: rec.Evidence, Trace: rec.Trace}, true
	},
	Less: func(a, b evserve.Key) bool {
		if a.DB != b.DB {
			return a.DB < b.DB
		}
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		return a.QHash < b.QHash
	},
}

// Open creates (or re-opens) the evidence store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	return wal.Open(dir, Codec, opts)
}

// TailerOptions configures a Tailer.
type TailerOptions struct {
	// Interval is the poll period; <= 0 defaults to 200ms.
	Interval time.Duration
	// Client is the HTTP client for polls; nil uses a 10s-timeout default.
	Client *http.Client
	// MaxBytes bounds one poll's chunk; 0 uses the server default.
	MaxBytes int
	// Apply, when non-nil, observes every record actually applied to the
	// store — seedd uses it to inject replicated evidence into the serving
	// cache so a promoted follower answers from memory.
	Apply func(k evserve.Key, e evserve.Entry)
}

// NewTailer builds a tailer that replicates the peer named by source (a
// replica base URL, or a full replication URL with its own query) into
// store, skipping records the store already holds identically.
func NewTailer(source string, store *Store, opts TailerOptions) *Tailer {
	return wal.NewTailer(source, Codec, wal.TailerOptions[evserve.Key, evserve.Entry]{
		Interval: opts.Interval,
		Client:   opts.Client,
		MaxBytes: opts.MaxBytes,
		Apply: func(k evserve.Key, e evserve.Entry) (bool, error) {
			if cur, ok := store.Get(k); ok && cur.Evidence == e.Evidence && reflect.DeepEqual(cur.Trace, e.Trace) {
				return false, nil
			}
			if err := store.Append(k, e); err != nil {
				return false, err
			}
			if opts.Apply != nil {
				opts.Apply(k, e)
			}
			return true, nil
		},
	})
}
