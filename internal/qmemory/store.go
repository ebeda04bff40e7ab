package qmemory

import (
	"encoding/json"

	"repro/internal/wal"
)

// Store is the memory's durable side: the shared log (internal/wal) keyed
// by pattern ID. Every confidence change appends the pattern's full
// record, so replay needs no delta logic and compaction is just "rewrite
// the live set" — both of which, like crash recovery and the
// one-process-per-directory lock, are the log's.
type Store = wal.Log[string, Record]

// StoreOptions configures a Store.
type StoreOptions struct {
	// Manifest, when non-empty, stamps the directory with a corpus
	// identity (evstore.Manifest formatting); reopening over a different
	// manifest fails instead of serving another corpus's SQL.
	Manifest string
	// CompactEvery compacts the log in the background once this many
	// records accumulate in its WAL; 0 defaults to 1024, negative
	// disables automatic compaction.
	CompactEvery int
}

// StoreCodec frames pattern records for the log, keyed and ordered by
// pattern ID.
var StoreCodec = wal.Codec[string, Record]{
	Name: "qmemory",
	Encode: func(_ string, rec Record) ([]byte, error) {
		return json.Marshal(rec)
	},
	Decode: func(payload []byte) (string, Record, bool) {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.ID == "" {
			return "", Record{}, false
		}
		return rec.ID, rec, true
	},
	Less: func(a, b string) bool { return a < b },
}

// OpenStore opens (creating if needed) the store in dir and replays its
// live set.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	return wal.Open(dir, StoreCodec, wal.Options{Manifest: opts.Manifest, CompactEvery: opts.CompactEvery})
}
