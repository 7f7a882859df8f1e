// GoogleTest predicate for the bit-for-bit stream pins: equal op streams
// pass; otherwise the failure names the first index where they differ (or
// where the shorter one ends) and prints the records around it, instead of
// dumping both whole vectors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "src/eunomia/op.h"

namespace eunomia::testenv {

inline ::testing::AssertionResult SameOpStream(
    const std::vector<OpRecord>& got, const std::vector<OpRecord>& want) {
  const std::size_t common = std::min(got.size(), want.size());
  std::size_t i = 0;
  while (i < common && got[i] == want[i]) {
    ++i;
  }
  if (i == common && got.size() == want.size()) {
    return ::testing::AssertionSuccess();
  }
  auto failure = ::testing::AssertionFailure();
  failure << "streams differ first at index " << i << " (got " << got.size()
          << " records, want " << want.size() << ")";
  const std::size_t from = i == 0 ? 0 : i - 1;
  for (std::size_t k = from; k < std::min(i + 2, common); ++k) {
    failure << "\n  [" << k << "] got " << got[k] << ", want " << want[k];
  }
  if (i == common) {
    failure << "\n  [" << i << "] "
            << (got.size() > want.size() ? "got extra " : "missing ")
            << (got.size() > want.size() ? got[i] : want[i]);
  }
  return failure;
}

}  // namespace eunomia::testenv
