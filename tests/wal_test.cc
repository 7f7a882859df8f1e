// Durability subsystem tests: record framing and torn-tail tolerance,
// the disk seam (posix / in-memory / fault-injecting), the inline
// LogWriter, and EunomiaService crash recovery end to end.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/eunomia/service.h"
#include "src/eunomia/service_wal.h"
#include "src/wal/disk.h"
#include "src/wal/log.h"
#include "src/wal/log_writer.h"

namespace eunomia {
namespace {

using wal::FsyncPolicy;
using wal::LogState;
using wal::Record;

// --- record framing ----------------------------------------------------------

TEST(WalLog, RoundTripsRecords) {
  std::string log;
  wal::AppendRecord(&log, 1, "alpha");
  wal::AppendRecord(&log, 2, "");
  wal::AppendRecord(&log, 200, std::string(1000, 'x'));
  std::vector<Record> records;
  std::size_t valid = 0;
  EXPECT_EQ(wal::ReadLog(log, &records, &valid), LogState::kClean);
  EXPECT_EQ(valid, log.size());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[0].payload, "alpha");
  EXPECT_EQ(records[1].type, 2);
  EXPECT_EQ(records[1].payload, "");
  EXPECT_EQ(records[2].type, 200);
  EXPECT_EQ(records[2].payload, std::string(1000, 'x'));
}

TEST(WalLog, EveryTruncationYieldsAValidPrefix) {
  // A crash can cut the file at any byte. Whatever the cut point, ReadLog
  // must return exactly the records wholly before it, and report a torn
  // tail unless the cut lands on a record boundary.
  std::string log;
  std::vector<std::string> payloads = {"one", "", "three33", "4444"};
  std::vector<std::size_t> boundaries = {0};
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    wal::AppendRecord(&log, static_cast<std::uint8_t>(i + 1), payloads[i]);
    boundaries.push_back(log.size());
  }
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    std::vector<Record> records;
    std::size_t valid = 0;
    const LogState state =
        wal::ReadLog(std::string_view(log).substr(0, cut), &records, &valid);
    const auto boundary =
        std::upper_bound(boundaries.begin(), boundaries.end(), cut) - 1;
    const auto whole = static_cast<std::size_t>(boundary - boundaries.begin());
    EXPECT_EQ(records.size(), whole) << "cut=" << cut;
    EXPECT_EQ(valid, *boundary) << "cut=" << cut;
    EXPECT_EQ(state, cut == *boundary ? LogState::kClean : LogState::kTornTail)
        << "cut=" << cut;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].payload, payloads[i]);
    }
  }
}

TEST(WalLog, SeededFuzzBitFlipsNeverProduceGarbage) {
  // Fuzz-lite in the geo_wire style: flip one random bit anywhere in a
  // valid log; parsing must yield a (possibly shorter) prefix of the
  // original records — never a record that was not written, never a crash.
  Rng rng(0x5EED4A11 ^ 0x1234);
  for (int round = 0; round < 500; ++round) {
    std::string log;
    std::vector<std::string> payloads;
    const int n = 1 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < n; ++i) {
      std::string payload(rng.NextBounded(64), '\0');
      for (char& c : payload) {
        c = static_cast<char>(rng.NextBounded(256));
      }
      payloads.push_back(payload);
      wal::AppendRecord(&log, static_cast<std::uint8_t>(1 + i % 7), payload);
    }
    std::string mangled = log;
    const std::size_t at = rng.NextBounded(mangled.size());
    mangled[at] = static_cast<char>(mangled[at] ^
                                    static_cast<char>(1u << rng.NextBounded(8)));
    std::vector<Record> records;
    wal::ReadLog(mangled, &records);
    ASSERT_LE(records.size(), payloads.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].payload, payloads[i]) << "round=" << round;
    }
  }
}

TEST(WalLog, RejectsOversizedLength) {
  std::string log;
  wal::AppendRecord(&log, 1, "ok");
  // Patch the length field (bytes 8..11, LE) to claim a 1 GiB payload: a
  // corrupt length must read as a torn tail, not as a huge allocation.
  log[8] = 0;
  log[9] = 0;
  log[10] = 0;
  log[11] = 0x40;
  std::vector<Record> records;
  EXPECT_EQ(wal::ReadLog(log, &records), LogState::kTornTail);
  EXPECT_TRUE(records.empty());
}

// --- the disk seam -----------------------------------------------------------

TEST(MemDisk, CrashDropsUnsyncedSuffix) {
  wal::MemDisk disk;
  auto file = disk.OpenAppend("f");
  ASSERT_TRUE(file->Append("durable"));
  ASSERT_TRUE(file->Sync());
  ASSERT_TRUE(file->Append("lost"));
  disk.Crash();
  std::string contents;
  ASSERT_TRUE(disk.ReadAll("f", &contents));
  EXPECT_EQ(contents, "durable");
}

TEST(MemDisk, WriteAtomicIsDurableAndHandleFollowsName) {
  wal::MemDisk disk;
  auto file = disk.OpenAppend("f");
  ASSERT_TRUE(file->Append("old"));
  ASSERT_TRUE(disk.WriteAtomic("f", "new"));
  // The open handle appends to the replaced file, like a reopened fd.
  ASSERT_TRUE(file->Append("+tail"));
  ASSERT_TRUE(file->Sync());
  disk.Crash();
  std::string contents;
  ASSERT_TRUE(disk.ReadAll("f", &contents));
  EXPECT_EQ(contents, "new+tail");
}

TEST(MemDisk, MissingFileReadsFalse) {
  wal::MemDisk disk;
  std::string contents = "sentinel";
  EXPECT_FALSE(disk.ReadAll("nope", &contents));
  EXPECT_TRUE(contents.empty());
}

TEST(FaultyDisk, TornTailKeepsPartialUnsyncedSuffixOnly) {
  wal::FaultyDisk disk({/*torn_tail=*/1.0, /*bit_flip=*/0.0}, /*seed=*/7);
  auto file = disk.OpenAppend("f");
  ASSERT_TRUE(file->Append("durable|"));
  ASSERT_TRUE(file->Sync());
  const std::string tail(256, 't');
  ASSERT_TRUE(file->Append(tail));
  disk.Crash();
  std::string contents;
  ASSERT_TRUE(disk.ReadAll("f", &contents));
  // The durable prefix is inviolate; the tail is a strict partial prefix.
  ASSERT_GE(contents.size(), 8u);
  EXPECT_EQ(contents.substr(0, 8), "durable|");
  EXPECT_LT(contents.size(), 8u + tail.size());
  EXPECT_EQ(disk.torn_tails(), 1u);
}

TEST(FaultyDisk, RecoverLogSurvivesTornAndFlippedTails) {
  // Seeded sweep: append framed records, sync a prefix, append more, crash
  // with torn+flip faults. Recovery must return all synced records, at most
  // the unsynced ones, in order, and leave the file clean for reappending.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    wal::FaultyDisk disk({/*torn_tail=*/0.8, /*bit_flip=*/0.5}, seed);
    auto file = disk.OpenAppend("log");
    std::vector<std::string> payloads;
    std::string buf;
    Rng rng(seed * 977 + 13);
    const int synced = 2 + static_cast<int>(rng.NextBounded(4));
    const int unsynced = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < synced + unsynced; ++i) {
      std::string payload = "rec-" + std::to_string(i) +
                            std::string(rng.NextBounded(100), 'p');
      payloads.push_back(payload);
      buf.clear();
      wal::AppendRecord(&buf, 1, payload);
      ASSERT_TRUE(file->Append(buf));
      if (i == synced - 1) {
        ASSERT_TRUE(file->Sync());
      }
    }
    disk.Crash();
    std::vector<Record> records;
    wal::RecoverLog(&disk, "log", &records);
    ASSERT_GE(records.size(), static_cast<std::size_t>(synced)) << seed;
    ASSERT_LE(records.size(), payloads.size()) << seed;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].payload, payloads[i]) << seed;
    }
    // RecoverLog truncated any torn tail on disk: appending now must yield
    // a clean log containing the survivors plus the new record.
    file = disk.OpenAppend("log");
    buf.clear();
    wal::AppendRecord(&buf, 2, "after-recovery");
    ASSERT_TRUE(file->Append(buf));
    ASSERT_TRUE(file->Sync());
    std::string bytes;
    ASSERT_TRUE(disk.ReadAll("log", &bytes));
    std::vector<Record> reread;
    EXPECT_EQ(wal::ReadLog(bytes, &reread), LogState::kClean) << seed;
    ASSERT_EQ(reread.size(), records.size() + 1) << seed;
    EXPECT_EQ(reread.back().payload, "after-recovery");
  }
}

TEST(PosixDisk, RoundTripsThroughRealFiles) {
  char tmpl[] = "wal_posix_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  {
    wal::PosixDisk disk(dir + "/nested");
    ASSERT_TRUE(disk.ok());
    auto file = disk.OpenAppend("log");
    ASSERT_NE(file, nullptr);
    ASSERT_TRUE(file->Append("hello "));
    ASSERT_TRUE(file->Append("disk"));
    ASSERT_TRUE(file->Sync());
    ASSERT_TRUE(disk.WriteAtomic("snap", "snapshot-bytes"));
    std::string contents;
    ASSERT_TRUE(disk.ReadAll("log", &contents));
    EXPECT_EQ(contents, "hello disk");
    ASSERT_TRUE(disk.ReadAll("snap", &contents));
    EXPECT_EQ(contents, "snapshot-bytes");
    auto names = disk.List();
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"log", "snap"}));
    EXPECT_FALSE(disk.ReadAll("missing", &contents));
    EXPECT_TRUE(disk.Remove("snap"));
    EXPECT_FALSE(disk.ReadAll("snap", &contents));
  }
  // Reopen: state persisted across the disk object's lifetime.
  {
    wal::PosixDisk disk(dir + "/nested");
    std::string contents;
    ASSERT_TRUE(disk.ReadAll("log", &contents));
    EXPECT_EQ(contents, "hello disk");
    disk.Remove("log");
  }
  ::rmdir((dir + "/nested").c_str());
  ::rmdir(dir.c_str());
}

// --- LogWriter ---------------------------------------------------------------

std::vector<Record> ReadAllRecords(wal::Disk* disk, const std::string& name) {
  std::string bytes;
  disk->ReadAll(name, &bytes);
  std::vector<Record> records;
  wal::ReadLog(bytes, &records);
  return records;
}

TEST(LogWriter, InlinePerCommitIsDurableRecordByRecord) {
  wal::MemDisk disk;
  wal::LogWriter writer(&disk, "log", FsyncPolicy::kPerCommit);
  ASSERT_TRUE(writer.Append(1, "a"));
  ASSERT_TRUE(writer.Append(1, "b"));
  disk.Crash();
  const auto records = ReadAllRecords(&disk, "log");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].payload, "b");
}

TEST(LogWriter, InlineOffLosesEverythingOnCrash) {
  wal::MemDisk disk;
  wal::LogWriter writer(&disk, "log", FsyncPolicy::kOff);
  ASSERT_TRUE(writer.Append(1, "a"));
  disk.Crash();
  EXPECT_TRUE(ReadAllRecords(&disk, "log").empty());
  // ...even flushed: Flush under kOff never syncs.
  ASSERT_TRUE(writer.Append(1, "b"));
  ASSERT_TRUE(writer.Flush());
  EXPECT_EQ(ReadAllRecords(&disk, "log").size(), 1u);  // written...
  disk.Crash();                                         // ...but volatile
  EXPECT_TRUE(ReadAllRecords(&disk, "log").empty());
}

TEST(LogWriter, InlineIntervalSyncsByBytes) {
  wal::MemDisk disk;
  wal::LogWriter writer(&disk, "log", FsyncPolicy::kInterval);
  ASSERT_TRUE(writer.Append(1, "tiny"));  // below the threshold: unsynced
  const std::uint64_t syncs_before = disk.syncs();
  ASSERT_TRUE(writer.Append(1, std::string(wal::kFsyncIntervalBytes, 'x')));
  EXPECT_GT(disk.syncs(), syncs_before);  // crossing it synced both
  disk.Crash();
  EXPECT_EQ(ReadAllRecords(&disk, "log").size(), 2u);
  // Below the threshold again: only an explicit Flush makes it durable.
  ASSERT_TRUE(writer.Append(1, "after"));
  ASSERT_TRUE(writer.Flush());
  disk.Crash();
  EXPECT_EQ(ReadAllRecords(&disk, "log").size(), 3u);
}

// Appends from several threads serialize through the writer's lock: under
// kPerCommit every Append that returned is durable, and each thread's
// records land in its own order.
TEST(LogWriter, InlinePerCommitConcurrentAppendsLoseNothing) {
  wal::MemDisk disk;
  wal::LogWriter writer(&disk, "log", FsyncPolicy::kPerCommit);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&writer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(writer.Append(
            1, "t" + std::to_string(t) + "-" + std::to_string(i)));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Every Append returned => every record durable: crash loses nothing.
  disk.Crash();
  const auto records = ReadAllRecords(&disk, "log");
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::map<std::string, int> last_index;
  for (const Record& record : records) {
    const auto dash = record.payload.find('-');
    const std::string thread_tag = record.payload.substr(0, dash);
    const int index = std::stoi(record.payload.substr(dash + 1));
    auto it = last_index.find(thread_tag);
    if (it != last_index.end()) {
      EXPECT_GT(index, it->second);
    }
    last_index[thread_tag] = index;
  }
}

TEST(LogWriter, CompactRewritesAtomicallyAndKeepsAppending) {
  wal::MemDisk disk;
  wal::LogWriter writer(&disk, "log", FsyncPolicy::kPerCommit);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.Append(1, std::to_string(i)));
  }
  ASSERT_TRUE(writer.Compact([](const wal::RecordView& record) {
    return std::stoi(std::string(record.payload)) >= 5;  // drop <5 prefix
  }));
  ASSERT_TRUE(writer.Append(2, "post-compact"));
  disk.Crash();
  const auto records = ReadAllRecords(&disk, "log");
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records.front().payload, "5");
  EXPECT_EQ(records.back().payload, "post-compact");

  // ServiceWal's real pattern: a maintenance thread compacts while a
  // producer keeps appending. Every record the filter keeps and every
  // acknowledged append must survive, in append order.
  constexpr int kAppends = 400;
  std::thread producer([&writer] {
    for (int i = 0; i < kAppends; ++i) {
      ASSERT_TRUE(writer.Append(3, "p" + std::to_string(i)));
    }
  });
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(writer.Compact([](const wal::RecordView& record) {
      return record.type == 3;  // drop the first phase, keep the producer's
    }));
  }
  producer.join();
  disk.Crash();
  const auto raced = ReadAllRecords(&disk, "log");
  ASSERT_EQ(raced.size(), static_cast<std::size_t>(kAppends));
  for (int i = 0; i < kAppends; ++i) {
    EXPECT_EQ(raced[i].type, 3);
    EXPECT_EQ(raced[i].payload, "p" + std::to_string(i));
  }
}

// --- EunomiaService recovery -------------------------------------------------

struct StreamCapture {
  sync::Mutex mu{"StreamCapture::mu", sync::kRankExempt};
  std::vector<OpRecord> ops;

  StableSink Sink() {
    return [this](const std::vector<OpRecord>& batch) {
      sync::MutexLock lock(mu);
      ops.insert(ops.end(), batch.begin(), batch.end());
    };
  }
  std::vector<OpRecord> Snapshot() {
    sync::MutexLock lock(mu);
    return ops;
  }
};

EunomiaService::Options DurableServiceOptions(wal::Disk* disk,
                                              StableSink sink,
                                              std::uint64_t snapshot_bytes =
                                                  1u << 30) {
  EunomiaService::Options options;
  options.num_partitions = 2;
  options.num_shards = 2;
  options.stable_period_us = 200;
  options.sink = std::move(sink);
  options.durability.disk = disk;
  options.durability.fsync = FsyncPolicy::kPerCommit;
  options.durability.threaded = false;  // deterministic inline appends
  options.durability.snapshot_interval_bytes = snapshot_bytes;
  return options;
}

std::vector<OpRecord> MakeBatch(PartitionId partition, Timestamp first_ts,
                                int count) {
  std::vector<OpRecord> batch;
  for (int i = 0; i < count; ++i) {
    const Timestamp ts = first_ts + static_cast<Timestamp>(i) * 2;
    batch.push_back(OpRecord{ts, partition, /*key=*/ts * 10 + partition,
                             /*tag=*/ts});
  }
  return batch;
}

void WaitForStabilized(const EunomiaService& service, std::uint64_t count) {
  for (int i = 0; i < 5000 && service.ops_stabilized() < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service.ops_stabilized(), count);
}

TEST(ServiceRecovery, KillMidRunReplaysToThePreCrashFrontier) {
  wal::MemDisk disk;

  // Uninterrupted reference run on a throwaway disk: the stream to pin.
  std::vector<OpRecord> reference;
  {
    wal::MemDisk scratch;
    StreamCapture capture;
    EunomiaService service(DurableServiceOptions(&scratch, capture.Sink()));
    service.Start();
    for (PartitionId p = 0; p < 2; ++p) {
      service.SubmitBatch(p, MakeBatch(p, 1 + p, 50));
      service.Heartbeat(p, 1'000'000);
    }
    WaitForStabilized(service, 100);
    service.Stop();
    reference = capture.Snapshot();
    ASSERT_EQ(reference.size(), 100u);
  }

  // Crashed run: submit everything, stabilize half, then kill -9 (crash the
  // disk while the process state evaporates un-flushed).
  std::vector<OpRecord> pre_crash;
  {
    StreamCapture capture;
    EunomiaService service(DurableServiceOptions(&disk, capture.Sink()));
    service.Start();
    for (PartitionId p = 0; p < 2; ++p) {
      service.SubmitBatch(p, MakeBatch(p, 1 + p, 50));
      service.Heartbeat(p, 1'000'000);
    }
    WaitForStabilized(service, 100);
    pre_crash = capture.Snapshot();
    disk.Crash();  // kPerCommit: every accepted record is already durable
    service.Stop();
  }

  // Restart from the same disk: everything accepted pre-crash replays and
  // re-stabilizes (no snapshot was taken, so the full stream re-emits).
  StreamCapture capture;
  EunomiaService service(DurableServiceOptions(&disk, capture.Sink()));
  EXPECT_FALSE(service.recovered_torn_tail());
  service.Start();
  WaitForStabilized(service, 100);
  service.Stop();
  const auto replayed = capture.Snapshot();
  // Bit-for-bit: the replayed stream IS the uninterrupted stream.
  EXPECT_EQ(replayed, reference);
  EXPECT_EQ(pre_crash, reference);
}

TEST(ServiceRecovery, SnapshotSuppressesReEmissionOfTheCoveredPrefix) {
  wal::MemDisk disk;
  std::vector<OpRecord> first_stream;
  std::uint64_t snapshots = 0;
  {
    StreamCapture capture;
    // Tiny snapshot interval: every emission triggers snapshot+compaction.
    EunomiaService service(
        DurableServiceOptions(&disk, capture.Sink(), /*snapshot_bytes=*/1));
    service.Start();
    for (PartitionId p = 0; p < 2; ++p) {
      service.SubmitBatch(p, MakeBatch(p, 1 + p, 50));
      service.Heartbeat(p, 1'000'000);
    }
    WaitForStabilized(service, 100);
    disk.Crash();
    service.Stop();  // joins the merge thread, so the count below is final
    snapshots = service.wal_snapshots();
    first_stream = capture.Snapshot();
    ASSERT_EQ(first_stream.size(), 100u);
  }
  ASSERT_GT(snapshots, 0u);

  // The snapshot mark covers the stable frontier, so a restart must replay
  // state but re-emit nothing that the snapshot covered.
  StreamCapture capture;
  EunomiaService service(DurableServiceOptions(&disk, capture.Sink()));
  service.Start();
  // New load on top proves the service keeps going from the durable frontier.
  service.SubmitBatch(0, MakeBatch(0, 2'000'001, 10));
  service.Heartbeat(0, 3'000'000);
  service.Heartbeat(1, 3'000'000);
  WaitForStabilized(service, 10);
  service.Stop();
  const auto second_stream = capture.Snapshot();
  // No op from the covered prefix may re-emit; dedup-union equals the whole.
  std::set<std::pair<Timestamp, PartitionId>> seen_first;
  for (const OpRecord& op : first_stream) {
    seen_first.insert({op.ts, op.partition});
  }
  std::size_t new_ops = 0;
  for (const OpRecord& op : second_stream) {
    if (op.ts > 2'000'000) {
      ++new_ops;
      continue;
    }
    // Anything re-emitted below the frontier must be above the last
    // snapshot mark — and must be an op that really existed.
    EXPECT_TRUE(seen_first.count({op.ts, op.partition}));
  }
  EXPECT_EQ(new_ops, 10u);
  // The suppression must have held back at least the first snapshot's
  // covered prefix: a full re-emission means the mark was ignored.
  EXPECT_LT(second_stream.size() - new_ops, first_stream.size());
}

TEST(ServiceRecovery, TornTailIsDetectedDiscardedAndNeverPropagated) {
  wal::MemDisk disk;
  {
    StreamCapture capture;
    EunomiaService service(DurableServiceOptions(&disk, capture.Sink()));
    service.Start();
    service.SubmitBatch(0, MakeBatch(0, 1, 20));
    service.SubmitBatch(1, MakeBatch(1, 2, 20));
    disk.Crash();
    service.Stop();
  }
  // Tear the tail of partition 0's log mid-record, as a crash mid-write
  // would: chop the last 5 bytes and mangle the new last byte.
  std::string bytes;
  ASSERT_TRUE(disk.ReadAll(ServiceWal::LogName(0), &bytes));
  ASSERT_GT(bytes.size(), 6u);
  bytes.resize(bytes.size() - 5);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  ASSERT_TRUE(disk.WriteAtomic(ServiceWal::LogName(0), bytes));

  StreamCapture capture;
  EunomiaService service(DurableServiceOptions(&disk, capture.Sink()));
  EXPECT_TRUE(service.recovered_torn_tail());
  service.Start();
  // Partition 1's batch is intact; partition 0 lost its only (torn) batch.
  service.Heartbeat(0, 1'000'000);
  service.Heartbeat(1, 1'000'000);
  WaitForStabilized(service, 20);
  service.Stop();
  for (const OpRecord& op : capture.Snapshot()) {
    EXPECT_EQ(op.partition, 1u);  // nothing torn ever reaches the stream
  }
}

TEST(ServiceRecovery, EmptyAndMissingDataDirRecoverToAFreshService) {
  wal::MemDisk disk;  // never written: recovery from nothing
  StreamCapture capture;
  EunomiaService service(DurableServiceOptions(&disk, capture.Sink()));
  EXPECT_FALSE(service.recovered_torn_tail());
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 1, 5));
  service.Heartbeat(0, 100);
  service.Heartbeat(1, 100);
  WaitForStabilized(service, 5);
  service.Stop();
  EXPECT_EQ(capture.Snapshot().size(), 5u);
}

}  // namespace
}  // namespace eunomia
