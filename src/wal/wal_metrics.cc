#include "src/wal/wal_metrics.h"

#include "src/metrics/registry.h"

namespace eunomia::wal {

WalMetrics& WalMetrics::Get() {
  // Leaked: recorded into from producer threads that may outlive main().
  static WalMetrics* instance = [] {
    metrics::Registry& registry = metrics::Registry::Default();
    auto* m = new WalMetrics();
    m->fsyncs = registry.AddCounter(
        "eunomia_wal_fsync_total", "WAL fsync calls issued");
    m->fsync_latency_us = registry.AddHistogram(
        "eunomia_wal_fsync_latency_microseconds",
        "Latency of each WAL fsync, in microseconds");
    m->appended_bytes = registry.AddCounter(
        "eunomia_wal_appended_bytes_total",
        "Bytes appended to WAL files (record frames incl. headers)");
    m->compactions = registry.AddCounter(
        "eunomia_wal_compactions_total", "WAL compaction passes completed");
    m->recovered_records = registry.AddCounter(
        "eunomia_wal_recovered_records_total",
        "Valid records replayed from WAL files at recovery");
    m->torn_tails = registry.AddCounter(
        "eunomia_wal_torn_tails_total",
        "Recoveries that found (and truncated) a torn tail");
    return m;
  }();
  return *instance;
}

}  // namespace eunomia::wal
