// Names the calling thread, so ps -L, top -H, perf and
// /proc/<pid>/task/<tid>/comm tell the long-lived threads apart (e.g.
// "eun-shard-0", "net-io-1").
#pragma once

#include <string>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace eunomia {

// Linux keeps at most 15 bytes of a thread name; longer names are cut.
inline void SetCurrentThreadName(const std::string& name) {
#if defined(__linux__)
  constexpr std::size_t kMaxThreadName = 15;
  pthread_setname_np(pthread_self(), name.substr(0, kMaxThreadName).c_str());
#else
  (void)name;
#endif
}

}  // namespace eunomia
