// The one writer of the machine-readable BENCH_*.json files the
// self-driving benches leave in the working directory (CI archives them;
// full-mode snapshots are committed at the repo root).
//
// Every file has the same shape:
//   {
//     "figure": "<bench name>",
//     "mode": "full" | "smoke",
//     "provenance": {"source": ..., "build_type": ..., "lock_rank_checks": ...,
//                    "compiler": ..., "nproc": ...},
//     <the bench's top-level scalars>,
//     "series": [{<row>}, ...]
//   }
// The provenance keys are exactly the ones perfbench records, so one checker
// (scripts/check_bench_json.py) reads both kinds of result. `source` is the
// git commit the binary was built from (`git:<sha>`, with `-dirty` when
// src/, bench/ or the root CMakeLists.txt differed from it), or `unknown`
// outside a git checkout; bench/source_id.cmake refreshes it at every build.
//
// Usage:
//   bench::BenchJson json("fig2_service_throughput", smoke);
//   json.scalars().Int("num_partitions", 16);
//   json.AddRow().Int("shards", 4).Num("mops_per_s", 1.234, 3);
//   json.Write("BENCH_fig2.json");
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <thread>

#include "bench_source.h"  // EUNOMIA_BENCH_SOURCE, generated at build time

namespace eunomia::bench {

// One JSON object's members, rendered as they are added (insertion order).
class JsonFields {
 public:
  JsonFields& Str(std::string_view key, std::string_view value) {
    return Member(key, Quote(value));
  }

  JsonFields& Int(std::string_view key, std::uint64_t value) {
    return Member(key, std::to_string(value));
  }

  // Fixed point with `decimals` fractional digits; NaN and infinities,
  // which JSON cannot express, become null.
  JsonFields& Num(std::string_view key, double value, int decimals) {
    if (!std::isfinite(value)) {
      return Member(key, "null");
    }
    const int length = std::snprintf(nullptr, 0, "%.*f", decimals, value);
    std::string text(static_cast<std::size_t>(length), '\0');
    std::snprintf(text.data(), text.size() + 1, "%.*f", decimals, value);
    return Member(key, text);
  }

  // The members without braces: `"a": 1, "b": "x"`.
  const std::string& members() const { return members_; }

 private:
  static std::string Quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char escaped[8];
        std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += escaped;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  JsonFields& Member(std::string_view key, std::string_view value) {
    if (!members_.empty()) {
      members_ += ", ";
    }
    members_ += Quote(key);
    members_ += ": ";
    members_ += value;
    return *this;
  }

  std::string members_;
};

class BenchJson {
 public:
  BenchJson(std::string_view figure, bool smoke)
      : figure_(figure), smoke_(smoke) {}

  // Top-level members, written after "provenance" and before "series".
  JsonFields& scalars() { return scalars_; }

  // Appends an empty series row for the caller to fill.
  JsonFields& AddRow() { return rows_.emplace_back(); }

  // Writes the file; a failure to open it is reported, not fatal, as for
  // every other stdout-only result of a bench run.
  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("WARNING: could not write %s\n", path.c_str());
      return;
    }
    JsonFields head;
    head.Str("figure", figure_).Str("mode", smoke_ ? "smoke" : "full");
    JsonFields provenance;
    provenance.Str("source", EUNOMIA_BENCH_SOURCE)
        .Str("build_type", EUNOMIA_BENCH_BUILD_TYPE)
        .Int("lock_rank_checks", EUNOMIA_LOCK_RANK_CHECKS)
        .Str("compiler", __VERSION__)
        .Int("nproc", std::thread::hardware_concurrency());
    std::fprintf(f, "{\n  %s,\n  \"provenance\": {%s},\n",
                 head.members().c_str(), provenance.members().c_str());
    if (!scalars_.members().empty()) {
      std::fprintf(f, "  %s,\n", scalars_.members().c_str());
    }
    std::fprintf(f, "  \"series\": [");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n    {%s}", i == 0 ? "" : ",",
                   rows_[i].members().c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu series rows)\n", path.c_str(), rows_.size());
  }

 private:
  std::string figure_;
  bool smoke_;
  JsonFields scalars_;
  // A deque, so the row AddRow returned stays valid as more are added.
  std::deque<JsonFields> rows_;
};

}  // namespace eunomia::bench
