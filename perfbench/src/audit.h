// The order_tcp end-of-run audit: after every phase has drained, the
// subscribed stable stream must equal the set of acked ops, with no gaps
// and no duplicates. Pure, so the self-test can feed it a broken run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// What happened to one scheduled batch.
struct BatchOutcome {
  std::uint32_t n_ops = 0;
  bool sent = false;           // SubmitBatch was called
  bool submit_failed = false;  // SubmitBatch returned false
  bool acked = false;          // a SubmitAck covered it
  std::uint32_t stable_ops = 0;  // its ops the subscriber saw
};

struct AuditResult {
  std::uint64_t attempted = 0;  // ops of sent batches
  std::uint64_t failed = 0;     // of those: not acked or not fully stable
  std::vector<std::string> violations;
};

// `drained`: every drain after a phase saw all sent batches stabilize
// before its deadline. A drain that ran out of time is itself a violation,
// and never hides one: an acked batch missing from the stream is reported
// whether or not the drain finished.
inline AuditResult AuditStableStream(const std::vector<BatchOutcome>& batches, bool drained) {
  AuditResult a;
  if (!drained) {
    a.violations.push_back("a drain ran out of time before every sent batch was stable");
  }
  std::uint64_t acked_ops = 0;
  std::uint64_t stable_ops = 0;
  bool gap = false;
  bool unacked_stable = false;
  bool unsent_stable = false;
  for (const BatchOutcome& b : batches) {
    stable_ops += b.stable_ops;
    if (!b.sent) {
      unsent_stable = unsent_stable || b.stable_ops > 0;
      continue;
    }
    a.attempted += b.n_ops;
    acked_ops += b.acked ? b.n_ops : 0;
    const bool stable = b.stable_ops == b.n_ops;
    if (b.submit_failed || !b.acked || !stable) {
      a.failed += b.n_ops;
    }
    gap = gap || (b.acked && b.stable_ops < b.n_ops);
    unacked_stable = unacked_stable || (!b.acked && b.stable_ops > 0);
  }
  if (gap) {
    a.violations.push_back("an acked batch never fully reached the stable stream");
  }
  if (unacked_stable) {
    a.violations.push_back("the stable stream carries ops of a batch that was never acked");
  }
  if (unsent_stable) {
    a.violations.push_back("the stable stream carries ops of a batch that was never sent");
  }
  if (stable_ops != acked_ops) {
    a.violations.push_back("the stable stream does not equal the set of acked ops");
  }
  return a;
}

}  // namespace perfbench
