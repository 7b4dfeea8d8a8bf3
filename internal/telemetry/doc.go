// Package telemetry is the end-to-end observability layer for the
// persistence substrate: it turns the simulator's raw counters into
// always-available, low-overhead metrics that show not just how many
// persistence instructions a run executed but where their cost went —
// the paper's Section 5 point that *which* pwb you execute matters more
// than how many, made continuously measurable.
//
// A Registry implements pmem.TelemetrySink. Attached to a pool
// (AttachPool), it records
//
//   - per-site executed-PWB counts and the simulated stall charged to
//     each pwb code line (ModeFast spin units),
//   - per-site psync stall attribution: each PSync's cost is divided over
//     the sites whose write-backs it had to complete,
//   - per-operation latency histograms (log-bucketed nanoseconds,
//     recorded by the bench harness via RecordOp),
//   - a bounded event-trace ring of persist and crash/recovery events
//     with global sequence numbers, dumpable after a crash-sweep
//     violation for postmortem debugging,
//   - named last-write-wins gauges (SetGauge) for subsystem state that is
//     not a persistence instruction — the rmm-* allocator family
//     (utilization, chunk counts, leak/mark repair totals published by
//     rmm.PublishTelemetry) is the first client.
//
// Everything is collected in lock-free per-thread shards — one simulated
// thread id writes one shard, snapshots merge them — so recording never
// introduces cross-thread cache traffic beyond what the observed code
// already has. When no sink is attached, the pmem hot paths pay a single
// owner-cached nil check per persistence instruction (the same
// generation-cached distribution trick as the site-enabled bitmask), so
// the layer is off-by-default-cheap.
//
// Snapshot serializes to JSON (schema SchemaVersion, validated by
// ValidateSnapshotJSON and cmd/telemetryvet).
package telemetry
