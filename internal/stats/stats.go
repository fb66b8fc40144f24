// Package stats declares the server's counter surface exactly once.
//
// Snapshot is the body of GET /v1/stats, the type the client SDK decodes
// it into, and — through the metric and help tags — the list of
// func-backed series GET /metrics exports (internal/serve walks the
// fields at mount time). Adding a counter is adding one field here and
// one assignment in serve's snapshot(); renaming one is a diff of
// internal/serve/testdata/telemetry.golden.
//
// A series is a counter when its metric name ends in _total and a gauge
// otherwise (the suffix rule in CONTRIBUTING.md); bool fields export as
// 0/1. Field order is the JSON key order, and new fields go at the end
// (additive under the /v1 policy). WALErrors (wal_errors) stays under
// that policy though it reads 0: the engine returns every WAL append
// failure to its writer and absorbs none. The package is a
// dependency-free leaf so importing the SDK does not pull in the engine.
package stats

// Snapshot is one sample of every counter the server exports.
type Snapshot struct {
	CacheHits       uint64 `json:"cache_hits" metric:"ra_engine_cache_hits_total" help:"structure cache hits (prepared probes answered without building)"`
	CacheMisses     uint64 `json:"cache_misses" metric:"ra_engine_cache_misses_total" help:"structure cache misses (synchronous O(n log n) builds)"`
	CacheEntries    int    `json:"cache_entries" metric:"ra_engine_cache_entries" help:"access structures currently cached"`
	Version         uint64 `json:"version" metric:"ra_engine_instance_version" help:"current MVCC instance version (bumped by every write batch)"`
	Tuples          int    `json:"tuples" metric:"ra_engine_tuples" help:"tuples in the database instance"`
	Prepared        int    `json:"prepared" metric:"ra_engine_prepared_queries" help:"registered named queries"`
	RegistryHits    uint64 `json:"registry_hits" metric:"ra_engine_registry_hits_total" help:"by-name probes served from a registered query's current handle"`
	Reprepares      uint64 `json:"reprepares" metric:"ra_engine_reprepares_total" help:"automatic re-prepares of registered queries after instance mutation"`
	OpenCursors     int    `json:"open_cursors" metric:"ra_serve_open_cursors" help:"server-side cursors currently open"`
	Checkpoints     uint64 `json:"snapshot_checkpoints" metric:"ra_engine_snapshot_checkpoints_total" help:"snapshot checkpoints written"`
	Restores        uint64 `json:"snapshot_restores" metric:"ra_engine_snapshot_restores_total" help:"snapshot restores applied"`
	WarmStructures  uint64 `json:"warm_structures" metric:"ra_engine_warm_structures" help:"structures the most recent warm start rehydrated from a mapped snapshot"`
	WALBatches      uint64 `json:"wal_batches" metric:"ra_engine_wal_batches_total" help:"mutation batches applied through the write path"`
	DeltaSkips      uint64 `json:"delta_skips" metric:"ra_engine_delta_skips_total" help:"stale structures republished unchanged (writes missed their relations)"`
	DeltaEpochs     uint64 `json:"delta_epochs" metric:"ra_engine_delta_epochs_total" help:"overlay epochs published (writes absorbed without rebuilding)"`
	DeltaRebuilds   uint64 `json:"delta_rebuilds" metric:"ra_engine_delta_rebuilds_total" help:"stale structures forced into a synchronous rebuild"`
	BGRebuilds      uint64 `json:"bg_rebuilds" metric:"ra_engine_bg_rebuilds_total" help:"background re-preprocesses that completed and swapped in"`
	WALErrors       uint64 `json:"wal_errors" metric:"ra_engine_wal_errors_total" help:"absorbed durable-WAL append failures (nonzero: the WAL disk is unhealthy)"`
	Shed429         uint64 `json:"shed_rate_limited" metric:"ra_serve_shed_rate_limited_total" help:"requests shed by the per-client rate limiter (429)"`
	Shed503         uint64 `json:"shed_overload" metric:"ra_serve_shed_overload_total" help:"requests shed by the concurrency gate (503)"`
	InFlight        int    `json:"in_flight" metric:"ra_serve_gate_in_flight" help:"requests holding a concurrency-gate slot"`
	QueueDepth      int    `json:"queue_depth" metric:"ra_serve_gate_queue_depth" help:"requests waiting for a concurrency-gate slot"`
	CoalesceHits    uint64 `json:"coalesce_hits" metric:"ra_serve_coalesce_hits_total" help:"probe windows served from the coalescer (shared flight or cached body)"`
	CoalesceMisses  uint64 `json:"coalesce_misses" metric:"ra_serve_coalesce_misses_total" help:"probe windows that paid their own probe + encode"`
	DegradedReads   uint64 `json:"degraded_reads" metric:"ra_serve_degraded_reads_total" help:"reads answered from a stale epoch while the engine was degraded"`
	WriteSheds      uint64 `json:"write_sheds" metric:"ra_serve_write_sheds_total" help:"writes refused while the engine was degraded"`
	Degraded        bool   `json:"degraded" metric:"ra_engine_degraded" help:"1 while the engine sheds writes (broken WAL or overlay backlog at the hard limit)"`
	OverlayEditsMax int    `json:"overlay_edits_max" metric:"ra_engine_overlay_edits_max" help:"largest delta overlay any cached structure carries"`
	BGRebuilding    int    `json:"bg_rebuilding" metric:"ra_engine_bg_rebuilding" help:"background re-preprocesses in flight"`
}
