// Shared command-line parsing for the bench binaries.
//
// Every self-driving benchmark accepts GNU-style flags, either boolean
// (`--smoke`) or key=value (`--seeds=20`), declared up front so a typo
// is a usage error instead of a silent no-op. ablation_ordered_buffer is
// the one exception: it is a Google Benchmark binary and keeps that
// framework's own argv handling.
//
// Usage:
//   int main(int argc, char** argv) {
//     eunomia::bench::Flags flags(argc, argv, {"smoke", "seeds"});
//     if (!flags.ok()) return flags.FailUsage();
//     ... flags.smoke(), flags.GetUint("seeds", 200) ...
//   }
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eunomia::bench {

class Flags {
 public:
  Flags(int argc, char** argv,
        std::initializer_list<std::string_view> known) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
        error_ = "unexpected argument '" + std::string(arg) + "'";
        break;
      }
      arg.remove_prefix(2);
      std::string_view name = arg;
      std::string value;
      const std::size_t eq = arg.find('=');
      if (eq != std::string_view::npos) {
        name = arg.substr(0, eq);
        value = std::string(arg.substr(eq + 1));
      }
      bool recognized = false;
      for (const std::string_view candidate : known) {
        if (name == candidate) {
          recognized = true;
          break;
        }
      }
      if (!recognized) {
        error_ = "unknown flag --" + std::string(name);
        break;
      }
      values_.emplace_back(std::string(name), std::move(value));
    }
    if (!error_.empty()) {
      error_ += " (known flags:";
      if (known.size() == 0) {
        error_ += " none";
      }
      for (const std::string_view candidate : known) {
        error_ += " --" + std::string(candidate);
      }
      error_ += ")";
    }
  }

  bool ok() const { return error_.empty(); }

  // Prints the parse error to stderr; returns the conventional usage-error
  // exit code for main() to propagate.
  int FailUsage() const {
    std::fprintf(stderr, "%s\n", error_.c_str());
    return 2;
  }

  bool Has(std::string_view name) const {
    for (const auto& [key, value] : values_) {
      if (key == name) {
        return true;
      }
    }
    return false;
  }

  std::string Get(std::string_view name, std::string_view def) const {
    for (const auto& [key, value] : values_) {
      if (key == name) {
        return value;
      }
    }
    return std::string(def);
  }

  std::uint64_t GetUint(std::string_view name, std::uint64_t def) const {
    for (const auto& [key, value] : values_) {
      if (key == name) {
        char* end = nullptr;
        const std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
        return (end != value.c_str() && *end == '\0') ? parsed : def;
      }
    }
    return def;
  }

  // The one flag every self-driving bench understands: a seconds-scale run
  // for CI instead of the full figure.
  bool smoke() const { return Has("smoke"); }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
  std::string error_;
};

}  // namespace eunomia::bench
