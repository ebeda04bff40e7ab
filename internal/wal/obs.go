package wal

import "repro/internal/obs"

// RegisterMetrics publishes the log's counters into reg as gauge
// callbacks evaluated at scrape time, named after the codec
// (evstore_records, ...).
func (l *Log[K, V]) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	gauge := func(name, help string, get func(Stats) float64) {
		reg.GaugeFunc(l.codec.Name+name, help, func() float64 { return get(l.Stats()) }, labels...)
	}
	gauge("_records", "Live entries (latest per key).", func(st Stats) float64 { return float64(st.Records) })
	gauge("_wal_records", "Records in the current WAL generation.", func(st Stats) float64 { return float64(st.WALRecords) })
	gauge("_appends_total", "Accepted Append calls since Open.", func(st Stats) float64 { return float64(st.Appends) })
	gauge("_compactions_total", "Completed snapshot rewrites since Open.", func(st Stats) float64 { return float64(st.Compactions) })
	gauge("_compact_errors_total", "Abandoned compactions.", func(st Stats) float64 { return float64(st.CompactErrors) })
	gauge("_snapshot_age_seconds", "Seconds since the last compaction (or Open).", func(st Stats) float64 { return st.SnapshotAgeSeconds })
}

// RegisterMetrics publishes the tailer's replication counters into reg,
// labelled by the peer it replicates from.
func (t *Tailer[K, V]) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	labels = append([]obs.Label{obs.L("source", t.source)}, labels...)
	gauge := func(name, help string, get func(TailerStats) float64) {
		reg.GaugeFunc(t.codec.Name+name, help, func() float64 { return get(t.Stats()) }, labels...)
	}
	gauge("_tailer_polls_total", "Replication round trips.", func(st TailerStats) float64 { return float64(st.Polls) })
	gauge("_tailer_applied_total", "Replicated records landed locally.", func(st TailerStats) float64 { return float64(st.Applied) })
	gauge("_tailer_duplicates_total", "Replicated records already present.", func(st TailerStats) float64 { return float64(st.Duplicates) })
	gauge("_tailer_resyncs_total", "Full-dump restarts after stalled polls.", func(st TailerStats) float64 { return float64(st.Resyncs) })
	gauge("_tailer_errors_total", "Failed polls.", func(st TailerStats) float64 { return float64(st.Errors) })
}
